"""Server predict paths + the stdlib HTTP JSON frontend."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models import MLP
from repro.serve import (
    AdmissionController,
    FaultInjector,
    FaultSchedule,
    ModelRouter,
    Server,
    export_model,
    load_model,
    make_http_server,
    malformed_payloads,
)
from repro.sparse import MaskedModel
from repro.sparse.inference import compile_sparse_model

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    model = MLP(27, (32, 32), 4, seed=0)
    masked = MaskedModel(model, 0.9, distribution="uniform",
                         rng=np.random.default_rng(1))
    compiled = compile_sparse_model(masked)
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    export_model(
        compiled, path,
        model_config={
            "builder": "mlp",
            "kwargs": {"in_features": 27, "hidden": [32, 32],
                       "num_classes": 4, "seed": 0},
        },
        preprocessing={"input_shape": [3, 3, 3]},
        metadata={"sparsity": 0.9},
    )
    return path


class TestServer:
    def test_predict_matches_loaded_model(self, artifact_path):
        loaded = load_model(artifact_path)
        x = RNG.standard_normal((5, 3, 3, 3)).astype(np.float32)
        with Server(loaded) as server:
            assert np.array_equal(server.predict(x), loaded.predict(x))

    def test_predict_one_through_queue_matches_batch_path(self, artifact_path):
        x = RNG.standard_normal((6, 3, 3, 3)).astype(np.float32)
        with Server.from_artifact(artifact_path, max_batch=4,
                                  max_latency_ms=1.0) as server:
            expected = server.predict(x)
            singles = np.stack([server.predict_one(x[i]) for i in range(6)])
        assert np.array_equal(singles, expected)

    def test_flat_examples_accepted_via_preprocessing(self, artifact_path):
        x = RNG.standard_normal((4, 27)).astype(np.float32)
        with Server.from_artifact(artifact_path) as server:
            out = server.predict(x)
        assert out.shape == (4, 4)

    def test_batching_disabled_still_serves(self, artifact_path):
        x = RNG.standard_normal((3, 3, 3)).astype(np.float32)
        with Server.from_artifact(artifact_path, batching=False) as server:
            out = server.predict_one(x)
            stats = server.stats()
        assert out.shape == (4,)
        assert stats["batching"] is False

    def test_wrong_shape_raises(self, artifact_path):
        with Server.from_artifact(artifact_path) as server:
            with pytest.raises(ValueError, match="input_shape"):
                server.predict(np.zeros((2, 5), np.float32))

    def test_stats_exposes_fingerprint_and_counts(self, artifact_path):
        with Server.from_artifact(artifact_path) as server:
            server.predict_one(np.zeros((3, 3, 3), np.float32))
            stats = server.stats()
        assert stats["fingerprint"].startswith("sha256:")
        assert stats["requests"] == 1


class _Client:
    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def get(self, path: str):
        try:
            with urllib.request.urlopen(self.base + path, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def post(self, path: str, payload, raw: bytes | None = None):
        status, body, _ = self.post_full(path, payload, raw=raw)
        return status, body

    def post_full(self, path: str, payload, raw: bytes | None = None):
        """Like post, but also returns the response headers."""
        body = raw if raw is not None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.base + path, data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read()), response.headers
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), error.headers

    def raw_request(self, request_bytes: bytes, shutdown_write: bool = False):
        """Send a hand-crafted HTTP request over a bare socket.

        Needed for malformed framing (lying Content-Length) that urllib
        refuses to produce.  Returns (status code, decoded JSON body).
        """
        host, port = self.base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(request_bytes)
            if shutdown_write:
                sock.shutdown(socket.SHUT_WR)
            sock.settimeout(10)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        response = b"".join(chunks)
        head, _, body = response.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        header_text = head.decode("latin-1")
        length = None
        for line in header_text.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = json.loads(body[:length] if length is not None else body)
        return status, payload


@pytest.fixture
def http_serving(artifact_path):
    loaded = load_model(artifact_path)
    server = Server(loaded, max_batch=8, max_latency_ms=1.0)
    httpd = make_http_server(server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield _Client(httpd.server_address[1]), loaded
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.close()


class TestHttp:
    def test_predict_endpoint_matches_in_process(self, http_serving):
        client, loaded = http_serving
        x = RNG.standard_normal((3, 3, 3, 3)).astype(np.float32)
        status, payload = client.post("/predict", {"inputs": x.tolist()})
        assert status == 200
        expected = loaded.predict(x)
        got = np.asarray(payload["outputs"], dtype=np.float32)
        assert np.allclose(got, expected, atol=1e-6)
        assert payload["predictions"] == [int(i) for i in expected.argmax(axis=1)]
        assert payload["latency_ms"] >= 0

    def test_healthz_and_stats(self, http_serving):
        client, loaded = http_serving
        status, health = client.get("/healthz")
        assert status == 200
        assert health == {"status": "ok", "fingerprint": loaded.fingerprint}
        status, stats = client.get("/stats")
        assert status == 200
        assert stats["batching"] is True

    def test_malformed_json_is_400(self, http_serving):
        client, _ = http_serving
        status, payload = client.post("/predict", None, raw=b"{not json")
        assert status == 400
        assert "error" in payload

    def test_missing_inputs_is_400(self, http_serving):
        client, _ = http_serving
        status, _ = client.post("/predict", {"wrong_key": [1]})
        assert status == 400

    def test_empty_inputs_is_400(self, http_serving):
        client, _ = http_serving
        status, _ = client.post("/predict", {"inputs": []})
        assert status == 400

    def test_bad_shape_is_400(self, http_serving):
        client, _ = http_serving
        status, payload = client.post("/predict", {"inputs": [[1.0, 2.0]]})
        assert status == 400
        assert "input_shape" in payload["error"]

    def test_unknown_path_is_404(self, http_serving):
        client, _ = http_serving
        status, payload = client.get("/nope")
        assert status == 404
        assert "error" in payload

    def test_concurrent_http_clients_all_answered(self, http_serving):
        client, loaded = http_serving
        x = RNG.standard_normal((3, 3, 3)).astype(np.float32)
        expected = loaded.predict(x[None])[0]
        outputs: list = []
        errors: list = []

        def one_request():
            try:
                status, payload = client.post("/predict", {"inputs": [x.tolist()]})
                assert status == 200
                outputs.append(np.asarray(payload["outputs"][0], np.float32))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=one_request) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(outputs) == 12
        for out in outputs:
            assert np.allclose(out, expected, atol=1e-6)


@pytest.fixture
def slow_http_serving(artifact_path):
    """Frontend over a server whose every batch stalls 300 ms (admission bound 1)."""
    server = Server(
        load_model(artifact_path),
        max_batch=8,
        max_latency_ms=0.5,
        admission=AdmissionController(max_pending=1, min_retry_after=0.05),
        fault_injector=FaultInjector(
            FaultSchedule({"slow_batch": list(range(64))}, params={"slow_batch_ms": 300})
        ),
    )
    httpd = make_http_server(server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield _Client(httpd.server_address[1])
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.close()


class TestHttpResilience:
    def test_oversized_content_length_is_413(self, http_serving):
        client, _ = http_serving
        request = (
            b"POST /predict HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 99999999999\r\n\r\n"
        )
        status, payload = client.raw_request(request, shutdown_write=True)
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_truncated_body_is_400(self, http_serving):
        client, _ = http_serving
        request = (
            b"POST /predict HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 1000\r\n\r\n"
            b'{"inputs": [['
        )
        status, payload = client.raw_request(request, shutdown_write=True)
        assert status == 400
        assert "truncated" in payload["error"]

    def test_malformed_payload_zoo_all_rejected_without_poisoning(self, http_serving):
        client, loaded = http_serving
        for blob in malformed_payloads(seed=0, n=10):
            status, payload = client.post("/predict", None, raw=blob)
            assert status == 400, blob
            assert "error" in payload
        # The frontend is unharmed: a healthy request still succeeds.
        x = RNG.standard_normal((1, 3, 3, 3)).astype(np.float32)
        status, payload = client.post("/predict", {"inputs": x.tolist()})
        assert status == 200
        assert np.allclose(payload["outputs"], loaded.predict(x), atol=1e-6)

    def test_burst_past_admission_bound_is_429_with_retry_after(self, slow_http_serving):
        client = slow_http_serving
        x = np.zeros((1, 27), np.float32).tolist()
        background = threading.Thread(
            target=client.post, args=("/predict", {"inputs": x})
        )
        background.start()
        try:
            time.sleep(0.1)  # first request now owns the only admission slot
            status, payload, headers = client.post_full("/predict", {"inputs": x})
            assert status == 429
            assert payload["reason"] == "queue_full"
            assert float(headers["Retry-After"]) > 0
            assert payload["retry_after"] > 0
        finally:
            background.join()

    def test_expired_deadline_is_504(self, slow_http_serving):
        client = slow_http_serving
        x = np.zeros((1, 27), np.float32).tolist()
        status, payload, _ = client.post_full(
            "/predict", {"inputs": x, "deadline_ms": 50}
        )
        assert status == 504
        assert payload["deadline_ms"] == 50
        assert "expired" in payload["error"]

    def test_invalid_deadline_is_400(self, http_serving):
        client, _ = http_serving
        status, _ = client.post(
            "/predict", {"inputs": [[0.0] * 27], "deadline_ms": -5}
        )
        assert status == 400


@pytest.fixture
def http_router(artifact_path):
    loaded = load_model(artifact_path)
    router = ModelRouter(max_latency_ms=0.5)
    router.deploy("clf", loaded)
    httpd = make_http_server(router, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield _Client(httpd.server_address[1]), loaded
    finally:
        httpd.shutdown()
        httpd.server_close()
        router.close()


class TestHttpRouter:
    def test_models_endpoint_lists_deployments(self, http_router):
        client, loaded = http_router
        status, payload = client.get("/models")
        assert status == 200
        (row,) = payload["models"]
        assert row["name"] == "clf"
        assert row["default"] is True
        assert row["fingerprint"] == loaded.fingerprint

    def test_models_endpoint_404_on_single_model_server(self, http_serving):
        client, _ = http_serving
        status, payload = client.get("/models")
        assert status == 404
        assert "single-model" in payload["error"]

    def test_named_predict_reports_serving_fingerprint(self, http_router):
        client, loaded = http_router
        x = RNG.standard_normal((2, 3, 3, 3)).astype(np.float32)
        status, payload = client.post(
            "/predict", {"inputs": x.tolist(), "model": "clf"}
        )
        assert status == 200
        assert payload["fingerprint"] == loaded.fingerprint
        assert np.allclose(payload["outputs"], loaded.predict(x), atol=1e-6)

    def test_unknown_model_is_404(self, http_router):
        client, _ = http_router
        status, payload = client.post(
            "/predict", {"inputs": [[0.0] * 27], "model": "nope"}
        )
        assert status == 404
        assert "nope" in payload["error"]

    def test_healthz_reports_default_fingerprint_and_names(self, http_router):
        client, loaded = http_router
        status, payload = client.get("/healthz")
        assert status == 200
        assert payload["fingerprint"] == loaded.fingerprint
        assert payload["models"] == ["clf"]

    def test_model_key_on_single_server_is_400(self, http_serving):
        client, _ = http_serving
        status, payload = client.post(
            "/predict", {"inputs": [[0.0] * 27], "model": "clf"}
        )
        assert status == 400
        assert "single model" in payload["error"]

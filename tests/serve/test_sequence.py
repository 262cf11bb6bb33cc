"""Sequence-kind preprocessing and the LM token-in/logits-out HTTP path."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models import CharGPT
from repro.serve import Server, export_model, load_model, make_http_server
from repro.serve.preprocess import Preprocessor
from repro.sparse import MaskedModel

SEQ_SPEC = {"kind": "sequence", "max_length": 8, "pad_id": 0, "vocab_size": 16}


class TestSequencePreprocessor:
    def test_left_pads_to_exactly_max_length(self):
        prep = Preprocessor(SEQ_SPEC)
        out = prep([[3, 4, 5]])
        assert out.shape == (1, 8)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out[0], [0, 0, 0, 0, 0, 3, 4, 5])

    def test_full_length_prompt_passes_through(self):
        prep = Preprocessor(SEQ_SPEC)
        ids = np.arange(8) % 16
        np.testing.assert_array_equal(prep(ids[None])[0], ids)

    def test_overlong_prompt_rejected(self):
        prep = Preprocessor(SEQ_SPEC)
        with pytest.raises(ValueError, match="exceeds the artifact max_length"):
            prep(np.zeros((1, 9), np.int64))

    def test_integral_floats_accepted_fractional_rejected(self):
        # The HTTP frontend decodes JSON numbers as float32, so exact
        # integers arriving as floats must survive the round trip.
        prep = Preprocessor(SEQ_SPEC)
        out = prep(np.array([[1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out[0, -2:], [1, 2])
        with pytest.raises(ValueError, match="must be integers"):
            prep(np.array([[1.5, 2.0]], dtype=np.float32))

    def test_vocab_range_enforced(self):
        prep = Preprocessor(SEQ_SPEC)
        with pytest.raises(ValueError, match=r"\[0, 16\)"):
            prep(np.array([[16]]))
        with pytest.raises(ValueError, match=r"\[0, 16\)"):
            prep(np.array([[-1]]))

    def test_negative_ids_rejected_without_vocab_size(self):
        prep = Preprocessor({"kind": "sequence", "max_length": 4})
        with pytest.raises(ValueError, match="non-negative"):
            prep(np.array([[-2]]))

    def test_ragged_and_empty_batches_rejected(self):
        prep = Preprocessor(SEQ_SPEC)
        with pytest.raises(ValueError, match="rectangular"):
            prep([[1, 2], [3]])
        with pytest.raises(ValueError, match="empty sequence"):
            prep(np.zeros((1, 0), np.int64))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown preprocessing kind"):
            Preprocessor({"kind": "audio"})
        with pytest.raises(ValueError, match="max_length"):
            Preprocessor({"kind": "sequence"})
        with pytest.raises(ValueError, match="does not apply"):
            Preprocessor({"kind": "sequence", "max_length": 4, "flatten": True})
        with pytest.raises(ValueError, match="pad_id"):
            Preprocessor(
                {"kind": "sequence", "max_length": 4, "pad_id": 9, "vocab_size": 4}
            )

    def test_dense_default_unchanged(self):
        prep = Preprocessor(None)
        assert prep.kind == "dense"
        out = prep(np.ones((2, 3), np.float64))
        assert out.dtype == np.float32


@pytest.fixture(scope="module")
def lm_artifact(tmp_path_factory):
    kwargs = dict(
        vocab_size=16,
        block_len=8,
        n_layer=1,
        n_head=2,
        n_embd=8,
        head="last",
        pad_id=0,
        seed=0,
    )
    masked = MaskedModel(
        CharGPT(**kwargs), 0.5, distribution="uniform", rng=np.random.default_rng(1)
    )
    path = tmp_path_factory.mktemp("lm-serve") / "lm.npz"
    export_model(
        masked,
        path,
        model_config={"builder": "char_gpt", "kwargs": kwargs},
        preprocessing=SEQ_SPEC,
        metadata={"workload": "lm"},
    )
    return path


@pytest.fixture
def lm_http(lm_artifact):
    loaded = load_model(lm_artifact)
    server = Server(loaded, max_batch=4, max_latency_ms=1.0)
    httpd = make_http_server(server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1], loaded
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.close()


def _post(port, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/predict",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestLMServing:
    def test_http_greedy_tokens_match_in_process(self, lm_http):
        port, loaded = lm_http
        prompts = [[3, 1, 4], [1, 5, 9, 2, 6]]
        status, payload = _post(port, {"inputs": prompts})
        assert status == 200
        expected = [
            int(np.argmax(loaded.predict(np.asarray(p)[None]))) for p in prompts
        ]
        assert payload["predictions"] == expected
        assert payload["fingerprint"].startswith("sha256:")

    def test_overlong_prompt_is_http_400(self, lm_http):
        port, _ = lm_http
        status, payload = _post(port, {"inputs": [list(range(1, 10))]})
        assert status == 400
        assert "max_length" in payload["error"]

    def test_fractional_token_ids_are_http_400(self, lm_http):
        port, _ = lm_http
        status, payload = _post(port, {"inputs": [[1.5, 2.0]]})
        assert status == 400
        assert "integers" in payload["error"]

    def test_padded_and_unpadded_prompt_agree(self, lm_artifact):
        loaded = load_model(lm_artifact)
        short = loaded.predict(np.array([[3, 1, 4]]))
        padded = loaded.predict(np.array([[0, 0, 0, 0, 0, 3, 1, 4]]))
        assert int(np.argmax(short)) == int(np.argmax(padded))

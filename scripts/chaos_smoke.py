"""CI chaos smoke: the resilient serving fleet under injected faults.

Drives the full hot-swap router + admission + HTTP stack through the
fault schedule the resilience layer claims to survive, and fails loudly on
the first dropped or wrong answer:

1. **Hot-swap under load** — client threads hammer ``POST /predict``
   (via :class:`RetryingClient`) while the artifact behind the route is
   hot-swapped.  Checks: zero failed requests, and every response's
   fingerprint/output pair matches *exactly* one of the two model
   versions — the flip is atomic, no mixed batch.
2. **Corrupt-artifact rollout** — a fingerprint-corrupted copy is pushed
   through ``hot_swap``; the canary path must refuse it, roll back, and
   keep serving the good weights.
3. **Malformed request burst** — the deterministic zoo from
   :func:`repro.serve.faults.malformed_payloads` must all get 400s and
   leave healthy traffic unharmed.
4. **Slow batch vs deadline** — an injected ``slow_batch`` stall makes a
   tight-deadline request answer 504 (not a hang, not a 500).

Exits non-zero on the first violated check.  Run from the repo root::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.models import MLP  # noqa: E402
from repro.serve import (  # noqa: E402
    AdmissionController,
    FaultInjector,
    FaultSchedule,
    HotSwapError,
    ModelRouter,
    RetryingClient,
    Server,
    corrupt_artifact,
    export_model,
    load_model,
    make_http_server,
    malformed_payloads,
)
from repro.sparse import MaskedModel  # noqa: E402
from repro.sparse.inference import compile_sparse_model  # noqa: E402

IN_FEATURES = 48
N_CLASSES = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def export_version(tmp: pathlib.Path, name: str, seed: int) -> pathlib.Path:
    model = MLP(IN_FEATURES, (64, 32), N_CLASSES, seed=seed)
    masked = MaskedModel(model, 0.9, distribution="uniform", rng=np.random.default_rng(seed + 100))
    compiled = compile_sparse_model(masked)
    path = tmp / f"{name}.npz"
    export_model(
        compiled,
        path,
        model_config={
            "builder": "mlp",
            "kwargs": {
                "in_features": IN_FEATURES,
                "hidden": [64, 32],
                "num_classes": N_CLASSES,
                "seed": seed,
            },
        },
        preprocessing={"input_shape": [IN_FEATURES]},
        metadata={"chaos": True, "version": name},
    )
    return path


def phase_hot_swap_under_load(router, port, v2_path, fingerprints, expected) -> None:
    x = expected["x"]
    results: list[tuple[str, list]] = []
    failures: list[BaseException] = []
    stop = threading.Event()

    def hammer(seed: int) -> None:
        client = RetryingClient(
            f"http://127.0.0.1:{port}",
            max_attempts=6,
            base_backoff_s=0.02,
            deadline_s=30.0,
            rng=np.random.default_rng(seed),
        )
        while not stop.is_set():
            try:
                payload = client.predict(x[None])
                results.append((payload["fingerprint"], payload["outputs"][0]))
            except BaseException as exc:
                failures.append(exc)
                return

    threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.3)  # traffic flowing against v1
    canary = np.tile(x, (4, 1))
    report = router.hot_swap("clf", v2_path, canary=canary)
    time.sleep(0.3)  # traffic flowing against v2
    stop.set()
    for thread in threads:
        thread.join()

    check(not failures, f"zero failed requests across the hot-swap ({failures[:1]!r})")
    check(len(results) > 0, f"traffic actually flowed during the swap ({len(results)} responses)")
    check(
        report["old_fingerprint"] == fingerprints["v1"]
        and report["new_fingerprint"] == fingerprints["v2"],
        "rollout report carries the old and new fingerprints",
    )
    served = {fingerprint for fingerprint, _ in results}
    check(
        served <= {fingerprints["v1"], fingerprints["v2"]},
        f"every response served by exactly v1 or v2 (saw {len(served)} fingerprints)",
    )
    for fingerprint, outputs in results:
        want = expected["v1"] if fingerprint == fingerprints["v1"] else expected["v2"]
        check(
            bool(np.allclose(np.asarray(outputs, np.float32), want, atol=1e-5)),
            "response output matches the model its fingerprint claims (atomic flip)",
        )
        break  # one detailed line; the loop below re-checks all silently
    mismatches = sum(
        not np.allclose(
            np.asarray(outputs, np.float32),
            expected["v1"] if fingerprint == fingerprints["v1"] else expected["v2"],
            atol=1e-5,
        )
        for fingerprint, outputs in results
    )
    check(mismatches == 0, f"all {len(results)} responses consistent with their fingerprint")
    check(
        fingerprints["v2"] in served,
        "post-swap traffic reached the new model version",
    )


def phase_corrupt_artifact(router, tmp, v2_path, fingerprints) -> None:
    bad = corrupt_artifact(v2_path, tmp / "corrupt.npz", seed=13)
    rollbacks_before = router.stats()["rollbacks"]
    try:
        router.hot_swap("clf", bad)
    except HotSwapError as exc:
        check("old model kept" in str(exc), "corrupt rollout aborted with rollback")
    else:
        check(False, "corrupt artifact must not pass the rollout gate")
    check(
        router.stats()["rollbacks"] == rollbacks_before + 1,
        "rollback counter incremented",
    )
    check(
        router.resolve("clf").fingerprint == fingerprints["v2"],
        "good deployment still serving after the refused rollout",
    )


def phase_malformed_burst(port, expected) -> None:
    rejected = 0
    for blob in malformed_payloads(seed=0, n=10):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/predict",
            data=blob,
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            check(error.code == 400, f"malformed body answered 400 (got {error.code})")
            error.read()
            rejected += 1
        else:
            check(False, f"malformed body accepted: {blob[:40]!r}")
    check(rejected == 10, "all 10 malformed bodies rejected")
    client = RetryingClient(f"http://127.0.0.1:{port}", rng=np.random.default_rng(5))
    payload = client.predict(expected["x"][None])
    outputs = np.asarray(payload["outputs"][0], np.float32)
    check(
        bool(np.allclose(outputs, expected["v2"], atol=1e-5)),
        "healthy request unharmed after the malformed burst",
    )


def phase_slow_batch_deadline(tmp, expected) -> None:
    loaded = load_model(tmp / "v2.npz")
    injector = FaultInjector(
        FaultSchedule({"slow_batch": list(range(64))}, {"slow_batch_ms": 400.0})
    )
    server = Server(loaded, max_latency_ms=0.5, fault_injector=injector)
    httpd = make_http_server(server, port=0)
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        body = json.dumps({"inputs": [expected["x"].tolist()], "deadline_ms": 60}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/predict",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            check(
                error.code == 504,
                f"stalled batch with tight deadline answers 504 (got {error.code})",
            )
            payload = json.loads(error.read())
            check(payload.get("deadline_ms") == 60, "504 body reports the deadline")
        else:
            check(False, "stalled batch must not beat a 60 ms deadline")
        counts = injector.counts()["slow_batch"]
        check(counts["fired"] >= 1, f"slow_batch fault actually fired ({counts})")
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.close()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = pathlib.Path(tmpdir)
        v1_path = export_version(tmp, "v1", seed=0)
        v2_path = export_version(tmp, "v2", seed=1)
        v1 = load_model(v1_path)
        v2 = load_model(v2_path)
        fingerprints = {"v1": v1.fingerprint, "v2": v2.fingerprint}
        x = np.random.default_rng(4).standard_normal(IN_FEATURES).astype(np.float32)
        expected = {
            "x": x,
            "v1": v1.predict(x[None])[0],
            "v2": v2.predict(x[None])[0],
        }
        check(
            not np.allclose(expected["v1"], expected["v2"], atol=1e-5),
            "v1 and v2 are distinguishable (swap is observable)",
        )

        router = ModelRouter(
            max_latency_ms=1.0,
            admission=AdmissionController(max_pending=128),
        )
        router.deploy("clf", v1_path)
        httpd = make_http_server(router, port=0)
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            print("--- phase 1: hot-swap under load")
            phase_hot_swap_under_load(router, port, v2_path, fingerprints, expected)
            print("--- phase 2: corrupt-artifact rollout")
            phase_corrupt_artifact(router, tmp, v2_path, fingerprints)
            print("--- phase 3: malformed request burst")
            phase_malformed_burst(port, expected)
        finally:
            httpd.shutdown()
            httpd.server_close()
            router.close()
        print("--- phase 4: slow batch vs deadline")
        phase_slow_batch_deadline(tmp, expected)
    print("chaos smoke passed")


if __name__ == "__main__":
    main()

"""CI serving smoke: train → export → serve over HTTP → verify, end to end.

Exercises the full deployment pipeline at toy scale:

1. trains a tiny DST-EE MLP on synthetic CIFAR-like data,
2. compiles + exports it to a versioned serving artifact,
3. reloads the artifact and checks predictions are bitwise identical to
   the compiled model's,
4. serves it over the stdlib HTTP frontend and issues concurrent JSON
   requests, checking every response against the in-process path,
5. repeats the export → load checks for a 4x4-block DST-EE
   ``resnet50_mini`` (strided 3x3 and 1x1 convs through the compiled
   direct sparse convolution) and round-trips it through an in-process
   :class:`Server`, bitwise against the loaded model's forward,
6. runs the CLI ``serve``-parser plumbing far enough to prove the
   subcommand wiring imports.

Exits non-zero on the first violated check.  Run from the repo root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import threading
import urllib.request

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.autograd import no_grad  # noqa: E402
from repro.autograd.tensor import Tensor  # noqa: E402
from repro.data import cifar10_like  # noqa: E402
from repro.experiments.runner import run_image_classification  # noqa: E402
from repro.models import MLP, resnet50_mini  # noqa: E402
from repro.serve import (  # noqa: E402
    Server,
    export_model,
    load_model,
    make_http_server,
)
from repro.sparse.inference import SparseConv2d, compile_sparse_model  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def block_conv_smoke(data, tmp: str) -> None:
    """A 4x4-block resnet50_mini through compile -> export -> load -> Server."""
    kwargs = {"num_classes": 10, "width_mult": 0.25, "seed": 0}
    result = run_image_classification(
        "dst_ee",
        lambda seed: resnet50_mini(**dict(kwargs, seed=seed)),
        data,
        sparsity=0.9,
        epochs=1,
        batch_size=64,
        lr=0.05,
        delta_t=2,
        seed=0,
        block_size=4,
        sparse_backend="bsr",
        keep_model=True,
    )
    compiled = compile_sparse_model(result.masked)
    block_sizes = {m.block_size for m in compiled.modules() if isinstance(m, SparseConv2d)}
    check(4 in block_sizes, f"resnet50_mini compiled 4x4-block convs (block sizes {block_sizes})")
    x = np.random.default_rng(4).standard_normal((8, 3, 8, 8)).astype(np.float32)
    with no_grad():
        reference = np.asarray(compiled(Tensor(x)).data)
    path = pathlib.Path(tmp) / "resnet.npz"
    export_model(compiled, path, model_config={"builder": "resnet50_mini", "kwargs": kwargs})
    loaded = load_model(path)
    expected = loaded.predict(x)
    check(
        np.array_equal(expected, reference),
        "resnet50_mini: artifact round-trip is bitwise identical",
    )
    with Server(loaded, max_batch=8, max_latency_ms=2.0) as server:
        check(
            np.array_equal(server.predict(x), expected),
            "resnet50_mini: Server whole-batch predict is bitwise the loaded forward",
        )
        queued = np.stack([future.result(timeout=60) for future in map(server.submit, x)])
        check(
            np.array_equal(queued, expected),
            "resnet50_mini: Server batching-queue round trip is bitwise the loaded forward",
        )


def main() -> None:
    data = cifar10_like(n_train=256, n_test=128, image_size=8, seed=0)
    result = run_image_classification(
        "dst_ee",
        lambda seed: MLP(3 * 8 * 8, (64, 32), 10, seed=seed),
        data,
        sparsity=0.9,
        epochs=1,
        batch_size=64,
        lr=0.05,
        delta_t=6,
        seed=0,
        keep_model=True,
    )
    check(result.masked is not None, "training produced a masked model")

    compiled = compile_sparse_model(result.masked)
    x = np.random.default_rng(3).standard_normal((16, 3, 8, 8)).astype(np.float32)
    with no_grad():
        reference = np.asarray(compiled(Tensor(x.reshape(16, -1))).data)

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "smoke.npz"
        export_model(
            compiled,
            path,
            model_config={
                "builder": "mlp",
                "kwargs": {
                    "in_features": 3 * 8 * 8,
                    "hidden": [64, 32],
                    "num_classes": 10,
                    "seed": 0,
                },
            },
            preprocessing={"input_shape": [3, 8, 8], "flatten": True},
            metadata={"smoke": True},
        )
        loaded = load_model(path)
        check(
            np.array_equal(loaded.predict(x), reference),
            "artifact round-trip is bitwise identical",
        )

        server = Server(loaded, max_batch=8, max_latency_ms=2.0)
        httpd = make_http_server(server, port=0)
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            health = json.loads(
                urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=10).read()
            )
            check(health["status"] == "ok", "healthz answers ok")

            outputs = [None] * 8
            errors: list[BaseException] = []

            def one_request(index: int) -> None:
                try:
                    body = json.dumps({"inputs": [x[index].tolist()]}).encode()
                    request = urllib.request.Request(
                        f"http://127.0.0.1:{port}/predict",
                        data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    payload = json.loads(urllib.request.urlopen(request, timeout=30).read())
                    outputs[index] = np.asarray(payload["outputs"][0], np.float32)
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=one_request, args=(i,)) for i in range(8)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
            check(not errors, f"concurrent HTTP requests all answered ({errors!r})")
            for index in range(8):
                check(
                    np.allclose(outputs[index], reference[index], atol=1e-5),
                    f"HTTP response {index} matches in-process prediction",
                )
            stats = server.stats()
            check(stats["requests"] >= 8, "stats counted the HTTP requests")
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()

        block_conv_smoke(data, tmp)

    from repro.experiments.cli import build_parser

    args = build_parser().parse_args(["serve", "--artifact", "unused.npz", "--port", "0"])
    check(args.command == "serve", "CLI serve subcommand parses")
    print("serving smoke passed")


if __name__ == "__main__":
    main()

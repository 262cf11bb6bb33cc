"""Benchmark of sparse training and serving, one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lm_gpt95 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``lm_gpt95``    – char-GPT, DST-EE at 95%, Adam, ``sparse_backend="auto"``;
* ``vgg19_bsr98`` – VGG-19 (width 0.25), DST-EE at 98% with 4x4 blocks, BSR;
* ``serve_mlp95`` – a 95%-sparse MLP artifact behind an in-process Server,
  driven by an open loop at 2000 req/s and then a saturation phase.  It is
  not listed in BENCHMARK.json: its open-loop latency follows the shared
  host's scheduling more than the code (see CHANGES.md).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it carries the machine fingerprint and run details.  ``--tiny`` shortens
the training workloads for the benchmark's own tests (serving scales with
``--seconds`` alone).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread: the second core belongs to the serving workload's
# batching thread, and a thread pool the size of the machine makes step
# times depend on what else runs on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

WORKLOADS = ("lm_gpt95", "vgg19_bsr98", "serve_mlp95")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "mask_update_step_ms": "ms",
    "quality": "fraction",
    "goodput": "fraction",
}

_FORWARD_CHILDREN = (
    "tok_emb", "pos_emb", "blocks", "blocks.ln1", "blocks.attn", "blocks.ln2",
    "blocks.fc", "blocks.act", "blocks.proj", "ln_f", "lm_head",
    "features", "features.stage1", "features.stage2", "features.stage3",
    "features.stage4", "pool", "classifier",
)

# A workload reports 0 for a layer it does not use.
PER_LAYER = {
    "data.batch_ms": "ms",
    "models.forward_ms": "ms",
    **{f"models.forward.{child}_ms": "ms" for child in _FORWARD_CHILDREN},
    "nn.losses.loss_ms": "ms",
    "autograd.backward_ms": "ms",
    "sparse.kernels.forward_ms": "ms",
    "sparse.kernels.csr": "count",
    "sparse.kernels.bsr": "count",
    "sparse.kernels.dense": "count",
    "sparse.engine.hooks_ms": "ms",
    "optim.step_ms": "ms",
    "train.other_ms": "ms",
    "train.rows_sum_ms": "ms",
    "train.step_p50_ms": "ms",
    "trace.reconcile_pct": "%",
    "trace.overhead_pct": "%",
    "sparse.engine.mask_update_ms": "ms",
    "sparse.engine.grown_per_round": "count",
    "sparse.engine.exploration_rate": "fraction",
    "experiments.setup.data_s": "s",
    "experiments.setup.model_s": "s",
    "experiments.setup.method_s": "s",
    "train.install_backend_s": "s",
    "train.eval_s": "s",
}

# serve_mlp95 is not in BENCHMARK.json (see CHANGES.md); run by hand, its
# traced run reports these instead of PER_LAYER.
SERVE_PER_LAYER = {
    "trace.overhead_pct": "%",
    "serve.artifact.export_ms": "ms",
    "serve.artifact.load_ms": "ms",
    "serve.preprocess_us": "us",
    "serve.forward_ms": "ms",
    "serve.batching.queue_wait_p50_ms": "ms",
    "serve.batching.queue_wait_p99_ms": "ms",
    "serve.batching.batch_size_mean": "count",
    "serve.batching.timer_flush_ratio": "fraction",
    "serve.generator.late_p99_ms": "ms",
    "serve.generator.saturation_late_p99_ms": "ms",
    "serve.open_loop.sent": "count",
    "serve.open_loop.ok": "count",
    "serve.open_loop.failed": "count",
    "serve.saturation.sent": "count",
    "serve.saturation.ok": "count",
    "serve.saturation.failed": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for tests")
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace):
    """Run one workload in this process and return its ``Result``."""
    if args.workload == "serve_mlp95":
        import serving

        return serving.run(args.seed, args.seconds, bool(args.trace))
    import training

    spec = training.LM if args.workload == "lm_gpt95" else training.VGG
    return training.run(spec, args.seed, args.seconds, bool(args.trace), args.tiny)


def metric_list(workload: str, trace: bool) -> dict:
    """Name -> unit of every metric a run of ``workload`` prints."""
    if not trace:
        return END_TO_END
    return SERVE_PER_LAYER if workload == "serve_mlp95" else PER_LAYER


def report(result, wanted: dict) -> dict:
    """The final JSON line: every metric of ``wanted``, by name."""
    metrics = {}
    for name, unit in wanted.items():
        value, _ = result.metrics.get(name, (0.0, unit))
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from src/: {exc}", file=sys.stderr)
        return 2
    import json

    from common import fingerprint

    result = run_workload(args)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "info": result.info,
        "problems": result.problems,
    }
    if result.spans:
        # Spans stay in memory during the run and are written out once.
        out = Path(".perfbench-trace") / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                   "spans": result.spans}))
        details["spans_file"] = str(out)
    print(json.dumps(details))
    print(json.dumps(report(result, metric_list(args.workload, bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Microbenchmark: masked-training throughput, conv pipeline, parallelism.

Unlike the ``bench_table*`` benches (which regenerate paper tables), this
script tracks the *performance trajectory* of the training system from
PR 1 onward: it times

* masked-training steps/sec (forward + backward + controller + optimizer)
  across sparsities {0.8, 0.9, 0.95, 0.98} and MLP layer sizes, once per
  available execution backend (``legacy`` pre-PR, ``dense``/``csr`` after
  the kernel backend landed);
* the same metric on **conv models** (``vgg_small``, ``resnet_tiny``) —
  the cost center of the paper's VGG/ResNet results;
* mask-update latency (one full drop-and-grow round);
* multi-seed sweep wall-clock across the ``nproc`` axis
  (:func:`repro.experiments.runner.run_multi_seed` sharded over 1/2/4
  worker processes).

Machine-readable JSON goes to ``BENCH_engine.json`` at the repo root.  The
first run on a tree *without* :mod:`repro.sparse.kernels` also writes
``benchmarks/results/BENCH_engine_baseline.json``; later runs load that
file and report ``speedup_vs_baseline``.  Conv numbers are anchored the
same way to ``benchmarks/results/BENCH_engine_conv_baseline.json``,
captured on an earlier tree.

Run with::

    PYTHONPATH=src REPRO_SCALE=medium python benchmarks/bench_perf_engine.py

``REPRO_SCALE=small`` is the CI smoke setting (with ``REPRO_NPROC=2`` the
CI smoke also exercises the multiprocess sharding path).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro import nn
from repro.autograd.tensor import Tensor
from repro.experiments.configs import get_scale
from repro.models import MLP, resnet50_mini, vgg11
from repro.optim import SGD
from repro.sparse import (
    DensityBalanceController,
    DSTEEGrowth,
    DynamicSparseEngine,
    MaskedModel,
    TrainingSchedule,
)

try:  # present from PR 1 on; absent on the pre-PR baseline tree
    from repro.sparse import kernels as sparse_kernels
except ImportError:  # pragma: no cover - baseline capture only
    sparse_kernels = None

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_engine.json"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_engine_baseline.json"
CONV_BASELINE_PATH = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_engine_conv_baseline.json"
)

SPARSITIES = (0.8, 0.9, 0.95, 0.98)

# Layer-size grid per REPRO_SCALE.  The "medium" mlp_large row is the
# acceptance config: >= 2x steps/sec at 95% sparsity versus the baseline.
_CONFIGS = {
    "small": {
        "mlp_small": dict(in_features=256, hidden=(256, 256), num_classes=10, batch=32),
    },
    "medium": {
        "mlp_small": dict(in_features=512, hidden=(512, 512), num_classes=10, batch=64),
        "mlp_large": dict(in_features=1024, hidden=(1024, 1024), num_classes=100, batch=64),
    },
    "full": {
        "mlp_small": dict(in_features=512, hidden=(512, 512), num_classes=10, batch=64),
        "mlp_large": dict(in_features=1024, hidden=(1024, 1024), num_classes=100, batch=64),
        "mlp_wide": dict(in_features=2048, hidden=(2048, 2048), num_classes=100, batch=64),
    },
}

# (warmup steps, timed steps per chunk, chunks).  Each measurement takes the
# fastest chunk: on a shared single-core box the noise is one-sided (VM
# steal only ever slows a chunk down), so best-of-N is the stable estimator.
_STEPS = {"small": (4, 10, 2), "medium": (8, 30, 3), "full": (10, 60, 3)}

# Conv model grid: the paper's VGG/ResNet families at bench width.  The
# parameters (and the step counts below) must match the frozen
# conv-baseline capture for speedup_vs_baseline to be apples-to-apples.
_CONV_CONFIGS = {
    "small": {
        "vgg_small": dict(model="vgg11", width=0.25, image_size=12, num_classes=10, batch=16),
        "resnet_tiny": dict(model="resnet50_mini", width=0.125, image_size=12, num_classes=10, batch=16),
    },
    "medium": {
        "vgg_small": dict(model="vgg11", width=0.25, image_size=12, num_classes=10, batch=32),
        "resnet_tiny": dict(model="resnet50_mini", width=0.125, image_size=12, num_classes=10, batch=32),
    },
    "full": {
        "vgg_small": dict(model="vgg11", width=0.25, image_size=12, num_classes=10, batch=32),
        "resnet_tiny": dict(model="resnet50_mini", width=0.125, image_size=12, num_classes=10, batch=32),
    },
}
_CONV_STEPS = {"small": (3, 8, 2), "medium": (6, 20, 3), "full": (6, 20, 3)}

# Block-structured sparsity axis: tile size for the BSR side of the
# dense-vs-bsr conv A/B, and interleaved rounds per scale (alternating
# same-process chunks cancel shared-box load drift; best-of-N per side).
_BLOCK_SIZE = 4
_BLOCK_AB_ROUNDS = {"small": 2, "medium": 8, "full": 8}

# Multi-seed sweep axis: worker-process counts to shard run_multi_seed over.
_SWEEP_NPROCS = (2, 4)
_SWEEP_SETTINGS = {
    "small": dict(seeds=(0, 1), n_train=512, n_test=256, epochs=1, batch_size=64),
    "medium": dict(seeds=(0, 1, 2, 3), n_train=1024, n_test=512, epochs=1, batch_size=64),
    "full": dict(seeds=(0, 1, 2, 3), n_train=2048, n_test=512, epochs=2, batch_size=64),
}


def _build(config: dict, sparsity: float, seed: int = 0, block_size: int = 1):
    model = MLP(
        in_features=config["in_features"],
        hidden=config["hidden"],
        num_classes=config["num_classes"],
        seed=seed,
    )
    masked = MaskedModel(
        model,
        sparsity,
        distribution="uniform",
        rng=np.random.default_rng(seed + 1),
        block_size=block_size,
    )
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    scale = get_scale()
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-3),
        schedule=TrainingSchedule(
            total_steps=100_000,
            delta_t=scale.delta_t,
            drop_fraction=scale.drop_fraction,
        ),
        optimizer=optimizer,
        rng=np.random.default_rng(seed + 2),
    )
    return model, masked, optimizer, engine


def _batch(config: dict, seed: int = 3):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((config["batch"], config["in_features"])).astype(np.float32))
    y = rng.integers(0, config["num_classes"], size=config["batch"])
    return x, y


def _apply_backend(masked, optimizer, mode: str) -> None:
    """Install the requested execution backend (no-op on the baseline tree)."""
    if mode == "legacy" or sparse_kernels is None:
        return
    sparse_kernels.install_training_backends(masked, mode=mode)
    if mode != "dense":
        masked.bind_optimizer(optimizer)


def time_training(config: dict, sparsity: float, mode: str) -> float:
    """Masked-training steps/sec for one (layer size, sparsity, backend)."""
    model, masked, optimizer, engine = _build(config, sparsity)
    _apply_backend(masked, optimizer, mode)
    x, y = _batch(config)
    warmup, timed, chunks = _STEPS[get_scale().name]

    def one_step(step: int) -> None:
        engine.before_backward(step)
        model.zero_grad()
        loss = nn.cross_entropy(model(x), y)
        loss.backward()
        if not engine.on_backward(step):
            optimizer.step()
            engine.after_step(step)

    step = 0
    for _ in range(warmup):
        step += 1
        one_step(step)
    best = float("inf")
    for _ in range(chunks):
        start = time.perf_counter()
        for _ in range(timed):
            step += 1
            one_step(step)
        best = min(best, time.perf_counter() - start)
    return timed / best


def _build_conv(config: dict, sparsity: float, seed: int = 0, block_size: int = 1):
    if config["model"] == "vgg11":
        model = vgg11(config["num_classes"], config["width"], config["image_size"], seed=seed)
    else:
        model = resnet50_mini(config["num_classes"], config["width"], seed=seed)
    masked = MaskedModel(
        model,
        sparsity,
        distribution="uniform",
        rng=np.random.default_rng(seed + 1),
        block_size=block_size,
        # resnet_tiny's 8x8 1x1-convs round to zero blocks at bench
        # sparsities; they train unstructured instead of aborting the A/B.
        block_underflow="unstructured",
    )
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-3),
        schedule=TrainingSchedule(total_steps=100_000, delta_t=10, drop_fraction=0.3),
        optimizer=optimizer,
        rng=np.random.default_rng(seed + 2),
    )
    return model, masked, optimizer, engine


def time_conv_training(config: dict, sparsity: float, mode: str) -> float:
    """Conv masked-training steps/sec for one (model, sparsity, backend)."""
    model, masked, optimizer, engine = _build_conv(config, sparsity)
    _apply_backend(masked, optimizer, mode)
    rng = np.random.default_rng(3)
    size = config["image_size"]
    x = Tensor(rng.standard_normal((config["batch"], 3, size, size)).astype(np.float32))
    y = rng.integers(0, config["num_classes"], size=config["batch"])
    warmup, timed, chunks = _CONV_STEPS[get_scale().name]

    def one_step(step: int) -> None:
        engine.before_backward(step)
        model.zero_grad()
        loss = nn.cross_entropy(model(x), y)
        loss.backward()
        if not engine.on_backward(step):
            optimizer.step()
            engine.after_step(step)

    step = 0
    for _ in range(warmup):
        step += 1
        one_step(step)
    best = float("inf")
    for _ in range(chunks):
        start = time.perf_counter()
        for _ in range(timed):
            step += 1
            one_step(step)
        best = min(best, time.perf_counter() - start)
    return timed / best


def conv_block_ab() -> dict:
    """Interleaved A/B: unstructured masked-dense vs block-4 BSR conv training.

    Both sides train the same architecture at the same sparsity; the BSR
    side uses ``block_size=4`` masks with the ``bsr`` kernel backend, the
    reference side unstructured masks on the plain masked-dense path.
    Chunks alternate inside one process (best-of-N per side) so shared-box
    load drift cancels out of ``ratio`` — the number the regression gate
    guards.  Each side's mean drop-and-grow wall time (from the engine's
    update history) rides along as ``mask_update_ms_*``.
    """
    section: dict[str, dict[str, dict[str, float]]] = {}
    scale = get_scale().name
    rounds = _BLOCK_AB_ROUNDS[scale]
    warmup, timed, _ = _CONV_STEPS[scale]
    for name, config in _CONV_CONFIGS[scale].items():
        section[name] = {}
        for sparsity in SPARSITIES:
            sides = {}
            for key, mode, block in (("dense", "dense", 1), ("bsr", "bsr", _BLOCK_SIZE)):
                model, masked, optimizer, engine = _build_conv(
                    config, sparsity, block_size=block
                )
                _apply_backend(masked, optimizer, mode)
                rng = np.random.default_rng(3)
                size = config["image_size"]
                x = Tensor(
                    rng.standard_normal((config["batch"], 3, size, size)).astype(np.float32)
                )
                y = rng.integers(0, config["num_classes"], size=config["batch"])
                sides[key] = {
                    "model": model, "engine": engine, "optimizer": optimizer,
                    "x": x, "y": y, "step": 0, "best": float("inf"),
                }

            def one_step(side: dict) -> None:
                side["step"] += 1
                step = side["step"]
                engine, model, optimizer = side["engine"], side["model"], side["optimizer"]
                engine.before_backward(step)
                model.zero_grad()
                loss = nn.cross_entropy(model(side["x"]), side["y"])
                loss.backward()
                if not engine.on_backward(step):
                    optimizer.step()
                    engine.after_step(step)

            for side in sides.values():
                for _ in range(warmup):
                    one_step(side)
            for _ in range(rounds):
                for side in sides.values():
                    start = time.perf_counter()
                    for _ in range(timed):
                        one_step(side)
                    side["best"] = min(side["best"], time.perf_counter() - start)

            sps = {key: timed / side["best"] for key, side in sides.items()}
            upd = {
                key: float(np.mean([r.duration_ms for r in side["engine"].history]))
                for key, side in sides.items()
            }
            ratio = sps["bsr"] / sps["dense"]
            section[name][f"{sparsity:g}"] = {
                "dense": round(sps["dense"], 3),
                "bsr": round(sps["bsr"], 3),
                "ratio": round(ratio, 3),
                "block_size": _BLOCK_SIZE,
                "mask_update_ms_dense": round(upd["dense"], 3),
                "mask_update_ms_bsr": round(upd["bsr"], 3),
            }
            print(
                f"[block] {name} s={sparsity:g}: dense={sps['dense']:.2f} "
                f"bsr={sps['bsr']:.2f} ({ratio:.2f}x) "
                f"upd {upd['dense']:.1f}->{upd['bsr']:.1f} ms"
            )
    return section


def time_multi_seed_sweep() -> dict:
    """Wall-clock of one multi-seed cell, serial vs ``n_proc`` sharding."""
    from repro.data.synthetic import cifar10_like
    from repro.experiments.runner import run_image_classification, run_multi_seed

    settings = _SWEEP_SETTINGS[get_scale().name]
    data = cifar10_like(
        n_train=settings["n_train"], n_test=settings["n_test"],
        image_size=12, seed=7,
    )
    factory = lambda seed: MLP(3 * 12 * 12, (256, 256), 10, seed=seed)
    kwargs = dict(
        sparsity=0.9, epochs=settings["epochs"],
        batch_size=settings["batch_size"], lr=0.05, delta_t=6,
    )
    seeds = settings["seeds"]

    def timed_run(n_proc: int) -> tuple[float, float]:
        start = time.perf_counter()
        mean, _, _ = run_multi_seed(
            run_image_classification, "dst_ee", factory, data,
            seeds=seeds, n_proc=n_proc, **kwargs,
        )
        return time.perf_counter() - start, mean

    serial_seconds, serial_mean = timed_run(1)
    section = {
        "seeds": list(seeds),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": {},
        "speedup": {},
        "mean_accuracy": round(serial_mean, 4),
    }
    for n_proc in _SWEEP_NPROCS:
        seconds, mean = timed_run(n_proc)
        section["parallel_seconds"][str(n_proc)] = round(seconds, 3)
        section["speedup"][str(n_proc)] = round(serial_seconds / seconds, 3)
        # Sharded seeds recompute exactly the serial per-seed runs.
        assert mean == serial_mean, "parallel sweep diverged from serial"
        print(f"[sweep] nproc={n_proc}: {seconds:.2f}s vs serial "
              f"{serial_seconds:.2f}s ({serial_seconds / seconds:.2f}x)")

    # One run with n_proc unset exercises the REPRO_NPROC env resolution
    # end-to-end (the CI smoke sets REPRO_NPROC=2 for exactly this).
    from repro.parallel import resolve_nproc

    env_nproc = resolve_nproc()
    if env_nproc > 1:
        seconds, mean = timed_run(None)
        assert mean == serial_mean, "REPRO_NPROC sweep diverged from serial"
        section["env_nproc"] = {"nproc": env_nproc, "seconds": round(seconds, 3)}
        print(f"[sweep] REPRO_NPROC={env_nproc}: {seconds:.2f}s")
    return section


def _build_balanced(config: dict, sparsity: float, seed: int = 0):
    """Same setup as :func:`_build`, but under a rebalancing controller."""
    model = MLP(
        in_features=config["in_features"],
        hidden=config["hidden"],
        num_classes=config["num_classes"],
        seed=seed,
    )
    masked = MaskedModel(
        model,
        sparsity,
        distribution="uniform",
        rng=np.random.default_rng(seed + 1),
    )
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    scale = get_scale()
    controller = DensityBalanceController(
        masked,
        schedule=TrainingSchedule(
            total_steps=100_000,
            delta_t=scale.delta_t,
            drop_fraction=scale.drop_fraction,
        ),
        growth_rule=DSTEEGrowth(c=1e-3),
        optimizer=optimizer,
        rng=np.random.default_rng(seed + 2),
    )
    return model, masked, optimizer, controller


# Rebalancing-vs-plain axis: the sparsities the gate watches, and the
# methods of the accuracy A/B (label -> (registry method, distribution)).
_REBALANCE_SPARSITIES = (0.9, 0.95)
_REBALANCE_VARIANTS = {
    "uniform": ("dst_ee", "uniform"),
    "er": ("dst_ee", "er"),
    "balanced": ("balanced", "uniform"),
}


def rebalance_section() -> dict:
    """ΔT latency of cross-layer rebalancing vs the plain engine, plus accuracy.

    The balanced controller does everything the plain engine does at a ΔT
    boundary and additionally re-divides the global budget across layers
    from the gradient-mass EMA before realizing it (asymmetric drop/grow
    counts — see docs/controllers.md).  Both sides are timed interleaved
    in one process (best-of-N per side, same idiom as ``conv_block_ab``)
    so shared-box load drift cancels out of ``overhead`` — the ratio the
    regression gate caps at 1.15x.  The accuracy block trains the same
    model/data under a static uniform split, a static ER split, and the
    rebalancing controller, so the overhead buys something visible.
    """
    from repro.data.synthetic import cifar10_like
    from repro.experiments.runner import run_image_classification

    scale = get_scale()
    rounds = 3 if scale.name == "small" else 10
    delta_t = scale.delta_t
    delta_t_ms: dict[str, dict[str, dict[str, float]]] = {}
    for name, config in _CONFIGS[scale.name].items():
        delta_t_ms[name] = {}
        for sparsity in _REBALANCE_SPARSITIES:
            sides = {}
            for key in ("plain", "balanced"):
                builder = _build if key == "plain" else _build_balanced
                _, masked, _, controller = builder(config, sparsity)
                sides[key] = {
                    "masked": masked, "controller": controller,
                    "rng": np.random.default_rng(11), "best": float("inf"),
                }

            def fresh_grads(side: dict) -> None:
                rng = side["rng"]
                for target in side["masked"].targets:
                    target.param.grad = rng.standard_normal(
                        target.param.shape
                    ).astype(np.float32)

            for side in sides.values():  # warmup round
                fresh_grads(side)
                side["controller"].mask_update(delta_t)
            for i in range(rounds):
                for side in sides.values():
                    fresh_grads(side)
                    start = time.perf_counter()
                    side["controller"].mask_update((i + 2) * delta_t)
                    side["best"] = min(side["best"], time.perf_counter() - start)

            plain_ms = sides["plain"]["best"] * 1e3
            balanced_ms = sides["balanced"]["best"] * 1e3
            delta_t_ms[name][f"{sparsity:g}"] = {
                "plain": round(plain_ms, 4),
                "balanced": round(balanced_ms, 4),
                "overhead": round(balanced_ms / plain_ms, 3),
            }
            print(
                f"[rebal] {name} s={sparsity:g}: plain={plain_ms:.3f}ms "
                f"balanced={balanced_ms:.3f}ms ({balanced_ms / plain_ms:.2f}x)"
            )

    settings = _SWEEP_SETTINGS[scale.name]
    data = cifar10_like(
        n_train=settings["n_train"], n_test=settings["n_test"],
        image_size=12, seed=7,
    )
    factory = lambda seed: MLP(3 * 12 * 12, (256, 256), 10, seed=seed)
    accuracy: dict[str, float] = {}
    for label, (method, distribution) in _REBALANCE_VARIANTS.items():
        result = run_image_classification(
            method, factory, data,
            sparsity=0.9, epochs=settings["epochs"],
            batch_size=settings["batch_size"], lr=0.05, delta_t=6,
            distribution=distribution, seed=0,
        )
        accuracy[label] = round(result.final_accuracy, 4)
        print(f"[rebal] accuracy {label}: {accuracy[label]:.4f}")

    return {
        "sparsities": [f"{s:g}" for s in _REBALANCE_SPARSITIES],
        "delta_t_ms": delta_t_ms,
        "accuracy": accuracy,
    }


def time_mask_update(config: dict, sparsity: float, block_size: int = 1) -> float:
    """Mean latency (ms) of one full drop-and-grow round."""
    _, masked, _, engine = _build(config, sparsity, block_size=block_size)
    rng = np.random.default_rng(11)
    rounds = 3 if get_scale().name == "small" else 10
    delta_t = engine.update_schedule.delta_t

    def fresh_grads() -> None:
        for target in masked.targets:
            target.param.grad = rng.standard_normal(target.param.shape).astype(np.float32)

    fresh_grads()
    engine.mask_update(delta_t)  # warmup
    best = float("inf")
    for i in range(rounds):
        fresh_grads()
        start = time.perf_counter()
        engine.mask_update((i + 2) * delta_t)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def available_modes() -> list[str]:
    if sparse_kernels is None:
        return ["legacy"]
    return ["dense", "csr"]


def run() -> dict:
    scale = get_scale()
    configs = _CONFIGS[scale.name]
    modes = available_modes()

    training: dict[str, dict[str, dict[str, float]]] = {}
    mask_update: dict[str, dict[str, float]] = {}
    for name, config in configs.items():
        training[name] = {mode: {} for mode in modes}
        mask_update[name] = {}
        for sparsity in SPARSITIES:
            key = f"{sparsity:g}"
            for mode in modes:
                sps = time_training(config, sparsity, mode)
                training[name][mode][key] = round(sps, 3)
                print(f"[train] {name} s={key} backend={mode}: {sps:.2f} steps/s")
            latency = time_mask_update(config, sparsity)
            mask_update[name][key] = round(latency, 4)
            print(f"[mask ] {name} s={key}: {latency:.3f} ms/round")

    # ΔT latency across the block axis: triplet (COO) block masks update
    # O(nnz_blocks) state per round instead of O(numel) dense mask scans.
    mask_update_block: dict[str, dict[str, float]] = {}
    for name, config in configs.items():
        mask_update_block[name] = {}
        for block in (1, _BLOCK_SIZE):
            latency = time_mask_update(config, 0.95, block_size=block)
            mask_update_block[name][str(block)] = round(latency, 4)
            print(f"[mask ] {name} s=0.95 block={block}: {latency:.3f} ms/round")

    conv_training: dict[str, dict[str, dict[str, float]]] = {}
    conv_modes = [m for m in modes if m != "legacy"] or ["dense"]
    for name, config in _CONV_CONFIGS[scale.name].items():
        conv_training[name] = {mode: {} for mode in conv_modes}
        for sparsity in SPARSITIES:
            key = f"{sparsity:g}"
            for mode in conv_modes:
                sps = time_conv_training(config, sparsity, mode)
                conv_training[name][mode][key] = round(sps, 3)
                print(f"[conv ] {name} s={key} backend={mode}: {sps:.2f} steps/s")

    block_ab = conv_block_ab()
    sweep = time_multi_seed_sweep()
    rebalance = rebalance_section()

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
    conv_baseline = None
    if CONV_BASELINE_PATH.exists():
        conv_baseline = (
            json.loads(CONV_BASELINE_PATH.read_text())
            .get("scales", {})
            .get(scale.name)
        )

    result = {
        "schema": 2,
        "scale": scale.name,
        "nproc": os.cpu_count(),
        "sparsities": [f"{s:g}" for s in SPARSITIES],
        "modes": modes,
        "training_steps_per_sec": training,
        "conv_training_steps_per_sec": conv_training,
        "conv_block_ab": block_ab,
        "mask_update_ms": mask_update,
        "mask_update_block_ms": mask_update_block,
        "multi_seed_sweep": sweep,
        "rebalance": rebalance,
        "baseline": baseline,
        "speedup_vs_baseline": {},
        "conv_speedup_vs_baseline": {},
    }

    if conv_baseline is not None:
        base_training = conv_baseline.get("training_steps_per_sec", {})
        for name in conv_training:
            per_mode = {}
            for mode in conv_training[name]:
                base_mode = base_training.get(name, {}).get(mode, {})
                speedups = {
                    key: round(now / base_mode[key], 3)
                    for key, now in conv_training[name][mode].items()
                    if base_mode.get(key)
                }
                if speedups:
                    per_mode[mode] = speedups
            if per_mode:
                result["conv_speedup_vs_baseline"][name] = per_mode
        if result["conv_speedup_vs_baseline"]:
            print("[conv speedup vs baseline] "
                  + json.dumps(result["conv_speedup_vs_baseline"]))

    if baseline is not None and baseline.get("scale") == scale.name:
        best_mode = "csr" if "csr" in modes else modes[0]
        for name in training:
            base_cfg = baseline.get("training_steps_per_sec", {}).get(name, {})
            base_legacy = base_cfg.get("legacy", {})
            speedups = {}
            for key, now in training[name][best_mode].items():
                then = base_legacy.get(key)
                if then:
                    speedups[key] = round(now / then, 3)
            if speedups:
                result["speedup_vs_baseline"][name] = speedups
        print(f"[speedup vs baseline, backend={best_mode}] "
              + json.dumps(result["speedup_vs_baseline"]))

    if sparse_kernels is None and not BASELINE_PATH.exists():
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(
            {k: result[k] for k in
             ("schema", "scale", "nproc", "sparsities", "modes",
              "training_steps_per_sec", "mask_update_ms")},
            indent=2) + "\n")
        print(f"[baseline captured to {BASELINE_PATH}]")

    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"[written to {OUTPUT_PATH}]")
    return result


if __name__ == "__main__":
    run()

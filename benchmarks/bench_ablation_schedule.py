"""Ablation — mask-update period ΔT and drop-fraction schedule.

The paper follows RigL's recipe (cosine-annealed drop
fraction, updates every ΔT, frozen topology for the tail of training).
This bench varies ΔT and the annealing schedule at fixed budget.

Shape checks: every configuration holds the exact sparsity budget, and
some mask movement (any ΔT within range) beats a frozen random mask.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import cifar10_like
from repro.experiments import format_table, get_scale, run_image_classification
from repro.models import vgg19

SCALE = get_scale()


def _sweep() -> tuple[str, dict]:
    data = cifar10_like(
        n_train=SCALE.n_train, n_test=SCALE.n_test,
        image_size=SCALE.image_size, seed=7,
    )

    def factory(seed: int):
        return vgg19(
            num_classes=10, width_mult=SCALE.vgg_width,
            input_size=SCALE.image_size, seed=seed,
        )

    base = dict(
        sparsity=0.95, epochs=max(SCALE.epochs, 4),
        batch_size=SCALE.batch_size, lr=SCALE.lr,
    )
    variants = [
        ("static mask (no updates)", "static_random", dict(delta_t=SCALE.delta_t)),
        ("ΔT small", "dst_ee", dict(delta_t=max(2, SCALE.delta_t // 3))),
        ("ΔT default", "dst_ee", dict(delta_t=SCALE.delta_t)),
        ("ΔT large", "dst_ee", dict(delta_t=SCALE.delta_t * 4)),
    ]
    rows = []
    stats = {}
    for label, method, extra in variants:
        accs, sparsities = [], []
        for seed in SCALE.seeds:
            result = run_image_classification(
                method, factory, data, seed=seed, **base, **extra
            )
            accs.append(result.final_accuracy)
            sparsities.append(result.actual_sparsity)
        rows.append({
            "variant": label,
            "acc": f"{100 * np.mean(accs):.2f}",
            "sparsity": f"{np.mean(sparsities):.4f}",
        })
        stats[label] = float(np.mean(accs))
        assert np.mean(sparsities) == pytest.approx(0.95, abs=0.01), label

    table = format_table(
        rows, ["variant", "acc", "sparsity"],
        headers=["Schedule variant", "Accuracy", "Final sparsity"],
        title=f"Ablation: ΔT / update schedule @ 95% (scale={SCALE.name})",
    )
    return table, stats


def test_ablation_schedule(benchmark, report):
    table, stats = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("ablation_schedule", table)

    moving = max(stats["ΔT small"], stats["ΔT default"], stats["ΔT large"])
    assert moving >= stats["static mask (no updates)"] - 0.05

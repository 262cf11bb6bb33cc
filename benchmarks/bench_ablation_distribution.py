"""Ablation — layer-wise sparsity distribution (ERK vs ER vs uniform).

The paper initializes with ERK "as in RigL and ITOP".  This bench compares the three distributions at equal global budget under
DST-EE.

Shape checks: all three hold the global budget; ERK allocates more density
to small layers (verified through the trained masks) and is competitive
with uniform.
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

    rows = []
    stats: dict = {}
    for distribution in ("erk", "er", "uniform"):
        accs = []
        masks = None
        for seed in SCALE.seeds:
            result = run_image_classification(
                "dst_ee", factory, data, sparsity=0.95,
                epochs=max(SCALE.epochs, 4), batch_size=SCALE.batch_size,
                lr=SCALE.lr, delta_t=SCALE.delta_t,
                distribution=distribution, seed=seed,
            )
            accs.append(result.final_accuracy)
            masks = result.masks
            assert result.actual_sparsity == pytest.approx(0.95, abs=0.01)
        densities = np.array([m.mean() for m in masks.values()])
        rows.append({
            "distribution": distribution,
            "acc": f"{100 * np.mean(accs):.2f}",
            "density_spread": f"{densities.max() - densities.min():.3f}",
        })
        stats[distribution] = {
            "acc": float(np.mean(accs)),
            "spread": float(densities.max() - densities.min()),
        }

    table = format_table(
        rows, ["distribution", "acc", "density_spread"],
        headers=["Distribution", "Accuracy", "Layer density spread"],
        title=f"Ablation: sparsity distribution @ 95% (scale={SCALE.name})",
    )
    return table, stats


def test_ablation_distribution(benchmark, report):
    table, stats = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("ablation_distribution", table)

    # ERK is non-uniform across layers; uniform is (nearly) flat.
    assert stats["erk"]["spread"] > stats["uniform"]["spread"]
    # ERK is competitive with the alternatives (the paper's default choice).
    best = max(value["acc"] for value in stats.values())
    assert stats["erk"]["acc"] >= best - 0.08

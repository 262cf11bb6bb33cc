"""Figure 3 — exploration degree and accuracy vs trade-off coefficient c.

The paper sweeps c ∈ {1e-4, 1e-3, 5e-3} (CIFAR-100) and
{5e-4, 1e-3, 5e-3} (CIFAR-10) at 95% sparsity and shows: (left panels)
larger c ⇒ higher exploration degree per mask-update round; (right panels)
within the swept range, larger c ⇒ higher final accuracy.

At bench scale the gradient magnitudes are larger than in a 160-epoch
CIFAR run, so the *effective* sweep extends one decade higher (the
relative ordering is what matters, not the absolute c values).

Shape checks: exploration degree is monotone non-decreasing in c, and the
highest-c run is at least as accurate as the lowest-c run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import cifar10_like, cifar100_like
from repro.experiments import fig3_settings, format_table, run_image_classification
from repro.models import vgg19

SETTINGS = fig3_settings()
SCALE = SETTINGS.scale
# One decade above the paper's range (see module docstring).
COEFFICIENTS = (1e-3, 1e-2, 1e-1)


def _sweep(data) -> tuple[str, dict]:
    def factory(seed: int):
        return vgg19(
            num_classes=data.num_classes, width_mult=SCALE.vgg_width,
            input_size=SCALE.image_size, seed=seed,
        )

    epochs = max(SCALE.epochs, 6)
    rows = []
    stats: dict = {}
    curves: dict = {}
    for c in COEFFICIENTS:
        accs, rates, curve = [], [], None
        for seed in SCALE.seeds:
            result = run_image_classification(
                "dst_ee", factory, data, sparsity=SETTINGS.sparsity,
                epochs=epochs, batch_size=SCALE.batch_size, lr=SCALE.lr,
                delta_t=max(SCALE.delta_t // 2, 2), c=c, seed=seed,
            )
            accs.append(result.final_accuracy)
            rates.append(result.exploration_rate)
            curve = [r.exploration_rate for r in result.history.epochs]
        rows.append({
            "c": f"{c:g}",
            "exploration": f"{np.mean(rates):.3f}",
            "accuracy": f"{100 * np.mean(accs):.2f} ± {100 * np.std(accs):.2f}",
        })
        stats[c] = {"exploration": float(np.mean(rates)), "acc": float(np.mean(accs))}
        curves[c] = curve

    table_lines = [format_table(
        rows, ["c", "exploration", "accuracy"],
        headers=["c", "Exploration degree R", "Accuracy"],
        title=f"Figure 3 [{data.name} @ {SETTINGS.sparsity:.0%} sparsity] "
              f"(scale={SCALE.name})",
    )]
    table_lines.append("\nExploration degree per epoch (left-panel series):")
    for c, curve in curves.items():
        series = " ".join(f"{v:.3f}" for v in curve)
        table_lines.append(f"  c={c:<8g} {series}")
    return "\n".join(table_lines), stats


@pytest.mark.parametrize("dataset_name", ["cifar10", "cifar100"])
def test_fig3_exploration_tradeoff(benchmark, report, dataset_name):
    if dataset_name == "cifar10":
        data = cifar10_like(
            n_train=SCALE.n_train, n_test=SCALE.n_test,
            image_size=SCALE.image_size, seed=7,
        )
    else:
        data = cifar100_like(
            n_train=SCALE.n_train, n_test=SCALE.n_test,
            image_size=SCALE.image_size, n_classes=SCALE.cifar100_classes, seed=17,
        )
    table, stats = benchmark.pedantic(lambda: _sweep(data), rounds=1, iterations=1)
    report(f"fig3_{dataset_name}", table)

    # Left panels: exploration degree monotone in c.
    rates = [stats[c]["exploration"] for c in COEFFICIENTS]
    assert all(b >= a - 0.01 for a, b in zip(rates, rates[1:]))
    assert rates[-1] > rates[0]
    # Right panels: more exploration does not hurt at this sparsity.
    assert stats[COEFFICIENTS[-1]]["acc"] >= stats[COEFFICIENTS[0]]["acc"] - 0.05

"""Ablation — the acquisition function's components (Eq. 1).

Isolates the contribution of each term of the acquisition score by
comparing, at fixed budget and schedule:

* exploitation only   (c = 0 ⇒ RigL's greedy rule),
* exploration only    (random-ish growth driven by the coverage bonus with
  a huge c — gradients become irrelevant),
* the balanced score  (DST-EE's default),
* random growth       (SET, no acquisition function at all),
* ε sensitivity       (the Eq. 1 denominator constant).

Shape checks: the balanced configuration is never the worst, and ε changes
the never-active bonus without destroying accuracy.
"""

from __future__ import annotations

import numpy as np

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

    kwargs = dict(
        sparsity=0.95, epochs=max(SCALE.epochs, 4), batch_size=SCALE.batch_size,
        lr=SCALE.lr, delta_t=SCALE.delta_t,
    )
    variants = [
        ("exploitation only (c=0)", "dst_ee", dict(c=0.0)),
        ("balanced (c=1e-2)", "dst_ee", dict(c=1e-2)),
        ("exploration heavy (c=10)", "dst_ee", dict(c=10.0)),
        ("random growth (SET)", "set", {}),
        ("balanced, eps=0.1", "dst_ee", dict(c=1e-2, epsilon=0.1)),
        ("balanced, eps=10", "dst_ee", dict(c=1e-2, epsilon=10.0)),
    ]
    rows = []
    stats = {}
    for label, method, extra in variants:
        accs, rates = [], []
        for seed in SCALE.seeds:
            result = run_image_classification(
                method, factory, data, seed=seed, **kwargs, **extra
            )
            accs.append(result.final_accuracy)
            rates.append(result.exploration_rate)
        rows.append({
            "variant": label,
            "acc": f"{100 * np.mean(accs):.2f}",
            "exploration": f"{np.mean(rates):.3f}",
        })
        stats[label] = {"acc": float(np.mean(accs)), "rate": float(np.mean(rates))}

    table = format_table(
        rows, ["variant", "acc", "exploration"],
        headers=["Acquisition variant", "Accuracy", "Exploration R"],
        title=f"Ablation: acquisition components @ 95% (scale={SCALE.name})",
    )
    return table, stats


def test_ablation_acquisition(benchmark, report):
    table, stats = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report("ablation_acquisition", table)

    # Balanced is never the worst: some variant scores strictly below it,
    # unless every variant ties.
    balanced = stats["balanced (c=1e-2)"]["acc"]
    accs = [value["acc"] for value in stats.values()]
    assert any(acc < balanced for acc in accs) or len(set(accs)) == 1
    # The exploration-heavy variant must cover more weights than greedy.
    assert (
        stats["exploration heavy (c=10)"]["rate"]
        >= stats["exploitation only (c=0)"]["rate"]
    )

"""Proposition 1 — O(1/√Q) convergence of the masked gradient norm.

The paper proves that under Assumptions 1–3 the running mean of
``E‖∇F(W⊙M)‖²`` over mask-update rounds Q decays at rate O(1/√Q) plus a
mask-incurred floor.  This bench trains DST-EE, records the masked squared
gradient norm at every mask update with
:class:`~repro.metrics.GradientNormTracker`, and fits
``log(cum-mean norm) ≈ a + b·log Q``.

Shape checks: the fitted slope ``b`` is negative (the gradient norm
decays), and the final cumulative mean is below the initial norm.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data import DataLoader, cifar10_like
from repro.experiments import format_table, get_scale
from repro.metrics import GradientNormTracker, fit_decay_rate
from repro.models import vgg19
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule

SCALE = get_scale()


def _run_convergence_study() -> tuple[str, dict]:
    data = cifar10_like(
        n_train=SCALE.n_train, n_test=SCALE.n_test,
        image_size=SCALE.image_size, seed=7,
    )
    model = vgg19(
        num_classes=10, width_mult=SCALE.vgg_width,
        input_size=SCALE.image_size, seed=0,
    )
    masked = MaskedModel(model, 0.9, rng=np.random.default_rng(0))
    optimizer = SGD(model.parameters(), lr=SCALE.lr, momentum=0.9)
    loader = DataLoader(
        data.train, batch_size=SCALE.batch_size, shuffle=True,
        rng=np.random.default_rng(1),
    )
    epochs = max(SCALE.epochs * 2, 8)
    total_steps = epochs * len(loader)
    delta_t = max(SCALE.delta_t // 2, 2)
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-3),
        schedule=TrainingSchedule(
            total_steps=total_steps,
            delta_t=delta_t,
            stop_fraction=1.0,  # keep observing across the whole run
        ),
        optimizer=optimizer,
        rng=np.random.default_rng(2),
    )
    tracker = GradientNormTracker(masked)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs)

    step = 0
    for _ in range(epochs):
        for inputs, targets in loader:
            step += 1
            model.zero_grad()
            loss = nn.cross_entropy(model(inputs), targets)
            loss.backward()
            if engine.update_schedule.is_update_step(step):
                tracker.observe(len(tracker.records) + 1)
                engine.mask_update(step)
            else:
                masked.mask_gradients()
                optimizer.step()
                masked.apply_masks()
        scheduler.step()

    rounds, norms = tracker.series
    slope, intercept = fit_decay_rate(rounds, norms)
    cumulative = np.cumsum(norms) / np.arange(1, len(norms) + 1)

    rows = [
        {"Q": str(int(q)), "norm": f"{n:.4f}", "cum_mean": f"{c:.4f}"}
        for q, n, c in zip(rounds[:: max(1, len(rounds) // 12)],
                           norms[:: max(1, len(rounds) // 12)],
                           cumulative[:: max(1, len(rounds) // 12)])
    ]
    table = format_table(
        rows, ["Q", "norm", "cum_mean"],
        headers=["Round Q", "‖∇F(W⊙M)‖²", "cumulative mean"],
        title=(f"Proposition 1 convergence [VGG-19 / cifar10-like @ 90%]\n"
               f"fitted decay: log(cum-mean) = {intercept:.2f} + "
               f"{slope:.3f}·log(Q)   (theory: slope ≈ -0.5 before the "
               f"mask-error floor)"),
    )
    return table, {"slope": slope, "rounds": len(rounds),
                   "first": float(cumulative[0]), "last": float(cumulative[-1])}


def test_prop1_convergence(benchmark, report):
    table, stats = benchmark.pedantic(_run_convergence_study, rounds=1, iterations=1)
    report("prop1_convergence", table)

    assert stats["rounds"] >= 10
    assert stats["slope"] < 0.0           # gradient norm decays over rounds
    assert stats["last"] < stats["first"]  # cumulative mean shrinks

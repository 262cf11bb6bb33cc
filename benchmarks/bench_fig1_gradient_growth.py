"""Figure 1 + §I claim — greedy growth ignores small-gradient weights that
later become important.

The paper's Figure 1 shows per-weight trajectories: at a mask update,
greedy (RigL-style) growth activates only large-gradient inactive weights;
weights with small gradients at that instant are ignored, yet many of them
become high-magnitude (= important) later in training.  The intro
quantifies this: ">90% of non-active but important weights are ignored in
12 out of 16 convolutional layers".

This bench trains a scaled VGG-19 with DST-EE and measures, with
:class:`~repro.metrics.IgnoredImportantAnalysis`, the fraction of
*inactive-at-round-q but eventually-important* weights that the greedy
top-|grad| rule at round q would have missed, per conv layer.

Shape checks: the ignored fraction is high (> 0.5 on average) and exceeds
90% in a majority of the measurable conv layers — note that under ERK at
90% sparsity the early narrow convs stay dense, so fewer than 16 layers
participate at bench scale.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data import DataLoader, cifar10_like
from repro.experiments import format_table, get_scale
from repro.metrics import IgnoredImportantAnalysis
from repro.models import vgg19
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse import DSTEEGrowth, DynamicSparseEngine, MaskedModel, TrainingSchedule

SCALE = get_scale()


def _run_analysis() -> tuple[str, dict]:
    data = cifar10_like(
        n_train=SCALE.n_train, n_test=SCALE.n_test,
        image_size=SCALE.image_size, seed=7,
    )
    model = vgg19(
        num_classes=10, width_mult=SCALE.vgg_width,
        input_size=SCALE.image_size, seed=0,
    )
    masked = MaskedModel(model, 0.9, rng=np.random.default_rng(0))
    optimizer = SGD(model.parameters(), lr=SCALE.lr, momentum=0.9, weight_decay=5e-4)
    loader = DataLoader(
        data.train, batch_size=SCALE.batch_size, shuffle=True,
        rng=np.random.default_rng(1),
    )
    epochs = max(SCALE.epochs, 4)
    total_steps = epochs * len(loader)
    # A strongly-exploring coefficient so exploration actually grows the
    # small-gradient weights whose later importance the figure demonstrates.
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=5e-2),
        schedule=TrainingSchedule(
            total_steps=total_steps,
            delta_t=SCALE.delta_t,
            drop_fraction=0.3,
        ),
        optimizer=optimizer,
        rng=np.random.default_rng(2),
    )
    analysis = IgnoredImportantAnalysis(masked, important_quantile=0.5)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs)

    step = 0
    for _ in range(epochs):
        for inputs, targets in loader:
            step += 1
            model.zero_grad()
            loss = nn.cross_entropy(model(inputs), targets)
            loss.backward()
            if engine.update_schedule.is_update_step(step):
                analysis.observe_update(engine, step)
            else:
                masked.mask_gradients()
                optimizer.step()
                masked.apply_masks()
        scheduler.step()
    analysis.finalize()

    fractions = analysis.ignored_fraction_by_layer()
    conv_fractions = {
        name: value for name, value in fractions.items() if "features" in name
    }
    rows = [
        {"layer": name, "ignored_frac": f"{100 * value:.1f}%"}
        for name, value in sorted(conv_fractions.items())
    ]
    high_count = sum(1 for value in conv_fractions.values() if value > 0.9)
    mean_frac = float(np.mean(list(conv_fractions.values()))) if conv_fractions else 0.0
    summary = (
        f"conv layers measured: {len(conv_fractions)} / 16 "
        f"(ERK keeps the narrow early convs dense at this scale);  "
        f"layers with >90% ignored-important fraction: {high_count};  "
        f"mean ignored fraction: {100 * mean_frac:.1f}%"
    )
    table = format_table(
        rows, ["layer", "ignored_frac"],
        headers=["Conv layer", "Important-but-greedy-ignored"],
        title=f"Figure 1 / §I claim [VGG-19 / cifar10-like @ 90%]\n{summary}",
    )
    return table, {"fractions": conv_fractions, "high_count": high_count,
                   "mean": mean_frac}


def test_fig1_ignored_important_weights(benchmark, report):
    table, stats = benchmark.pedantic(_run_analysis, rounds=1, iterations=1)
    report("fig1_gradient_growth", table)

    fractions = stats["fractions"]
    assert len(fractions) >= 8  # sparse conv layers all measurable
    # The greedy rule misses most eventually-important inactive weights.
    assert stats["mean"] > 0.5
    # The paper's ">90% in most layers" shape.
    assert stats["high_count"] >= len(fractions) // 2

"""Table II — ResNet-50(family) on ImageNet-like at 80/90% with FLOPs.

Regenerates the paper's ImageNet comparison, including the training- and
inference-FLOPs multipliers that the paper reports alongside Top-1
accuracy.  The method roster matches Table II: SNIP, GraSP (static),
DeepR, SNFS, DSR, SET, RigL, MEST, RigL-ITOP (dynamic) and DST-EE, plus
the dense reference with absolute FLOPs.

Shape checks:
* dynamic methods train at a small fraction of dense FLOPs (≈ the ERK
  density), while accuracy stays within a modest gap of dense;
* DST-EE is at least as accurate as the random-growth baselines.
"""

from __future__ import annotations

from repro.experiments import (
    format_table,
    run_image_classification,
    run_multi_seed,
    table2_settings,
)
from repro.flops import profile_model

SETTINGS = table2_settings()


def _build_table() -> tuple[str, dict]:
    data = SETTINGS.datasets["imagenet"]
    factory = SETTINGS.model_factories["resnet50"](data.num_classes)
    profile = profile_model(factory(0), data.input_shape)

    rows = []
    cells: dict = {}
    kwargs = SETTINGS.run_kwargs()

    dense_mean, dense_std, _ = run_multi_seed(
        run_image_classification, "dense", factory, data, seeds=SETTINGS.scale.seeds, **kwargs
    )
    rows.append(
        {
            "method": "dense",
            "sparsity": "-",
            "train_x": "1.00x",
            "infer_x": "1.00x",
            "top1": f"{100 * dense_mean:.2f} ± {100 * dense_std:.2f}",
        }
    )
    cells["dense"] = {None: dense_mean}

    for sparsity in SETTINGS.sparsities:
        for method in SETTINGS.methods:
            if method == "dense":
                continue
            mean, std, results = run_multi_seed(
                run_image_classification,
                method,
                factory,
                data,
                seeds=SETTINGS.scale.seeds,
                sparsity=sparsity,
                **kwargs,
            )
            sample = results[0]
            rows.append(
                {
                    "method": method,
                    "sparsity": f"{int(sparsity * 100)}%",
                    "train_x": f"{sample.training_flops_multiplier:.2f}x",
                    "infer_x": f"{sample.inference_flops_multiplier:.2f}x",
                    "top1": f"{100 * mean:.2f} ± {100 * std:.2f}",
                }
            )
            cells.setdefault(method, {})[sparsity] = {
                "acc": mean,
                "train_x": sample.training_flops_multiplier,
                "infer_x": sample.inference_flops_multiplier,
            }

    table = format_table(
        rows,
        ["method", "sparsity", "train_x", "infer_x", "top1"],
        headers=["Method", "Sparsity", "Training FLOPs", "Inference FLOPs", "Top-1"],
        title=(
            f"Table II [ResNet-50-family / imagenet-like] "
            f"dense fwd = {profile.total_flops:,} FLOPs "
            f"(scale={SETTINGS.scale.name})"
        ),
    )
    return table, cells


def test_table2(benchmark, report):
    table, cells = benchmark.pedantic(_build_table, rounds=1, iterations=1)
    report("table2_imagenet", table)

    for sparsity in SETTINGS.sparsities:
        # Dynamic methods with a fixed budget train at sparse cost.
        for method in ("set", "rigl", "dst_ee"):
            stats = cells[method][sparsity]
            assert stats["train_x"] < 0.8, (method, sparsity)
            assert stats["infer_x"] < 0.8, (method, sparsity)
        # DST-EE at least matches the stochastic-rewiring baseline.
        assert cells["dst_ee"][sparsity]["acc"] >= cells["deepr"][sparsity]["acc"] - 0.10

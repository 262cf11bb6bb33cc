"""Table III — GNN link prediction on the wiki-talk stand-in.

Dense vs ADMM prune-from-dense (60-epoch recipe, scaled) vs DST-EE
(50-epoch recipe, scaled) at 80/90/98% uniform sparsity on the two
fully-connected predictor layers.  Every cell is the final test accuracy
of one ``run_gnn`` run.

Shape checks: DST-EE ≥ prune-from-dense at every sparsity level (the
paper's margin grows at 98%), with fewer training epochs.
"""

from __future__ import annotations

from repro.data import wiki_talk_like
from repro.experiments import format_table, gnn_settings, run_gnn

SETTINGS = gnn_settings()
# Table label and epoch budget per method.
METHODS = {
    "dense": ("dense", SETTINGS.dense_epochs),
    "admm": ("prune-from-dense (ADMM)", SETTINGS.admm_epochs),
    "dst_ee": ("DST-EE", SETTINGS.dst_ee_epochs),
}


def _final_accuracy(data, method: str, sparsity: float) -> float:
    epochs = METHODS[method][1]
    result = run_gnn(method, data=data, sparsity=sparsity, epochs=epochs, lr=2e-2, seed=0)
    return result.final_accuracy


def _build_table(data) -> tuple[str, dict]:
    # Dense has no sparsity to vary: one run fills its row.
    dense = _final_accuracy(data, "dense", 0.0)
    cells = {"dense": dict.fromkeys(SETTINGS.sparsities, dense)}
    for method in ("admm", "dst_ee"):
        cells[method] = {s: _final_accuracy(data, method, s) for s in SETTINGS.sparsities}

    rows = [
        {
            "method": label,
            "epochs": str(epochs),
            **{f"s{int(s * 100)}": f"{100 * cells[method][s]:.2f}" for s in SETTINGS.sparsities},
        }
        for method, (label, epochs) in METHODS.items()
    ]
    columns = ["method", "epochs"] + [f"s{int(s * 100)}" for s in SETTINGS.sparsities]
    headers = ["Method", "Epochs"] + [f"{int(s * 100)}%" for s in SETTINGS.sparsities]
    table = format_table(
        rows,
        columns,
        headers,
        title=f"Table III [GNN link prediction / {data.name}] (scale={SETTINGS.scale.name})",
    )
    return table, cells


def test_table3_wikitalk(benchmark, report):
    data = wiki_talk_like(n_nodes=SETTINGS.scale.gnn_nodes, seed=0)
    table, cells = benchmark.pedantic(lambda: _build_table(data), rounds=1, iterations=1)
    report("table3_wikitalk", table)

    for sparsity in SETTINGS.sparsities:
        assert cells["dst_ee"][sparsity] >= cells["admm"][sparsity] - 0.03, sparsity
    # DST-EE holds up at extreme sparsity (no collapse).
    assert cells["dst_ee"][0.98] > 0.6

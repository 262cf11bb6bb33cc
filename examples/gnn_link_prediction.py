"""GNN link prediction: DST-EE vs ADMM prune-from-dense (mini Tables III/IV).

Reproduces the paper's §V.B protocol on synthetic stand-ins for the
wiki-talk and ia-email networks: a dense reference, DST-EE applied to the
two fully-connected predictor layers (uniform sparsity), and the
three-phase ADMM prune-from-dense baseline, each scored by its test
accuracy after the last epoch.

Usage::

    python examples/gnn_link_prediction.py
"""

from repro.data import ia_email_like, wiki_talk_like
from repro.experiments import format_table, run_gnn

SPARSITIES = (0.8, 0.9, 0.98)


def final_accuracy(data, method: str, epochs: int, sparsity: float = 0.0) -> float:
    """Test accuracy of one run after its last epoch."""
    return run_gnn(method, data=data, sparsity=sparsity, epochs=epochs, lr=2e-2).final_accuracy


def run_dataset(data) -> None:
    print(f"\n=== {data.name} ({data.n_nodes} nodes) ===")
    print(f"dense: {final_accuracy(data, 'dense', epochs=15):.3f}")

    rows = []
    for sparsity in SPARSITIES:
        # ADMM: 5 pretrain + 5 ADMM + 5 retrain epochs.
        admm = final_accuracy(data, "admm", epochs=15, sparsity=sparsity)
        dst = final_accuracy(data, "dst_ee", epochs=12, sparsity=sparsity)
        rows.append(
            {
                "sparsity": f"{int(sparsity * 100)}%",
                "admm": f"{admm:.3f}",
                "dst_ee": f"{dst:.3f}",
                "winner": "dst_ee" if dst >= admm else "admm",
            }
        )
    print(
        format_table(
            rows,
            ["sparsity", "admm", "dst_ee", "winner"],
            headers=["Sparsity", "ADMM prune-from-dense", "DST-EE", "Winner"],
        )
    )


def main() -> None:
    run_dataset(wiki_talk_like(n_nodes=400, seed=0))
    run_dataset(ia_email_like(n_nodes=400, seed=0))
    print("\nExpected shape (paper Tables III/IV): DST-EE matches or beats "
          "prune-from-dense at every sparsity, with the largest margin at 98%.")


if __name__ == "__main__":
    main()

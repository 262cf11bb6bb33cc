"""Quickstart: train a 90%-sparse VGG-19 with DST-EE and compare to dense.

Runs in well under a minute on a laptop CPU.

Usage::

    python examples/quickstart.py
"""

from repro.data import cifar10_like
from repro.experiments import run_image_classification
from repro.models import vgg19


def main() -> None:
    # A CIFAR-10 stand-in (CIFAR itself is not available offline) and a
    # width-scaled VGG-19 (the paper's 16-conv architecture).
    data = cifar10_like(n_train=1024, n_test=512, image_size=12, seed=0)

    def model_factory(seed: int):
        return vgg19(num_classes=10, width_mult=0.2, input_size=12, seed=seed)

    print("Training dense baseline...")
    dense = run_image_classification(
        "dense", model_factory, data, epochs=4, batch_size=64, lr=0.05,
    )
    print(f"  dense accuracy: {dense.final_accuracy:.3f} "
          f"({dense.seconds:.0f}s)")

    print("Training DST-EE at 90% sparsity...")
    sparse = run_image_classification(
        "dst_ee", model_factory, data,
        sparsity=0.9, epochs=4, batch_size=64, lr=0.05,
        delta_t=6,      # mask update period ΔT
        c=1e-3,         # exploration-exploitation trade-off coefficient
    )
    print(f"  DST-EE accuracy:       {sparse.final_accuracy:.3f} "
          f"({sparse.seconds:.0f}s)")
    print(f"  actual sparsity:       {sparse.actual_sparsity:.3f}")
    print(f"  exploration rate R:    {sparse.exploration_rate:.3f} "
          "(fraction of weights ever activated)")
    print(f"  inference FLOPs:       {sparse.inference_flops_multiplier:.2f}x dense")
    print(f"  training FLOPs:        {sparse.training_flops_multiplier:.2f}x dense")

    gap = dense.final_accuracy - sparse.final_accuracy
    print(f"\nAccuracy gap vs dense at 90% sparsity: {gap:+.3f}")


if __name__ == "__main__":
    main()

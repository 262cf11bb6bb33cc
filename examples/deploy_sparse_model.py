"""Deploy a trained sparse model: checkpoint → CSR inference kernels.

Trains a 95%-sparse VGG-19 with DST-EE, saves a sparse checkpoint (weights
+ masks + coverage counters), restores it into a fresh model, compiles the
masked layers to scipy-CSR inference kernels, and verifies that accuracy is
preserved while weight storage shrinks.

Usage::

    python examples/deploy_sparse_model.py
"""

import tempfile
import pathlib

import numpy as np

from repro.data import DataLoader, cifar10_like
from repro.models import vgg19
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse import (
    DSTEEGrowth,
    DynamicSparseEngine,
    MaskedModel,
    TrainingSchedule,
    compile_sparse_model,
    load_sparse_checkpoint,
    save_sparse_checkpoint,
    sparse_storage_bytes,
)
from repro.sparse.analysis import layer_density_table
from repro import nn
from repro.train import Trainer, evaluate_classifier


def main() -> None:
    data = cifar10_like(n_train=1024, n_test=512, image_size=12, seed=0)

    def factory(seed: int):
        return vgg19(num_classes=10, width_mult=0.2, input_size=12, seed=seed)

    # ------------------------------------------------------------- train
    model = factory(0)
    masked = MaskedModel(model, 0.95, rng=np.random.default_rng(0))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    train_loader = DataLoader(data.train, batch_size=64, shuffle=True,
                              rng=np.random.default_rng(1))
    test_loader = DataLoader(data.test, batch_size=256)
    engine = DynamicSparseEngine(
        masked,
        DSTEEGrowth(c=1e-3),
        schedule=TrainingSchedule(total_steps=4 * len(train_loader), delta_t=6),
        optimizer=optimizer,
        rng=np.random.default_rng(2),
    )
    trainer = Trainer(model, optimizer, nn.cross_entropy, train_loader,
                      test_loader, scheduler=CosineAnnealingLR(optimizer, 4),
                      controller=engine)
    trainer.fit(4)
    dense_path_acc = trainer.history.final_test_accuracy
    print(f"trained DST-EE @ 95%: accuracy {dense_path_acc:.3f}, "
          f"exploration R {engine.coverage.exploration_rate():.3f}")

    # ------------------------------------------------------ checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "dst_ee_vgg19.npz"
        save_sparse_checkpoint(masked, path, coverage=engine.coverage)
        print(f"checkpoint: {path.stat().st_size / 1024:.0f} KiB")

        fresh = factory(99)  # different init — fully overwritten by the load
        restored, coverage = load_sparse_checkpoint(fresh, path)
        restored_acc = evaluate_classifier(fresh, test_loader)
        print(f"restored model accuracy:  {restored_acc:.3f} "
              f"(coverage rounds: {coverage.rounds})")

        # --------------------------------------------------- compile CSR
        compiled = compile_sparse_model(restored)
        compiled_acc = evaluate_classifier(compiled, test_loader)
        csr_bytes, dense_bytes = sparse_storage_bytes(compiled)
        print(f"compiled (CSR) accuracy:  {compiled_acc:.3f}")
        print(f"weight storage: {csr_bytes / 1024:.0f} KiB CSR vs "
              f"{dense_bytes / 1024:.0f} KiB dense "
              f"({csr_bytes / dense_bytes:.2f}x)")

    print("\nPer-layer final densities (ERK keeps narrow layers denser):")
    for row in layer_density_table(restored)[:6]:
        print(f"  {row['layer']:24s} {row['shape']:>14s} density={row['density']}")
    print("  ...")


if __name__ == "__main__":
    main()

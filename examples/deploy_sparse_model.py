"""Deploy a trained sparse model: CSR inference kernels → serving artifact.

Trains a 95%-sparse VGG-19 with DST-EE, compiles the masked layers to
CSR inference kernels, exports them as a versioned serving artifact (the
CSR arrays, the dense state and the model config), reloads the artifact
into a freshly built model, and verifies that predictions are bitwise
identical, accuracy is preserved and weight storage shrinks.

Usage::

    python examples/deploy_sparse_model.py
"""

import tempfile
import pathlib

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.data import DataLoader, cifar10_like
from repro.models import vgg19
from repro.optim import SGD, CosineAnnealingLR
from repro.serve import export_model, load_model
from repro.sparse import (
    DSTEEGrowth,
    DynamicSparseEngine,
    MaskedModel,
    TrainingSchedule,
    compile_sparse_model,
    sparse_storage_bytes,
)
from repro.sparse.analysis import layer_density_table
from repro import nn
from repro.train import Trainer, evaluate_classifier

MODEL_CONFIG = {
    "builder": "vgg19",
    "kwargs": {"num_classes": 10, "width_mult": 0.2, "input_size": 12, "seed": 0},
}


def main() -> None:
    data = cifar10_like(n_train=1024, n_test=512, image_size=12, seed=0)

    # ------------------------------------------------------------- train
    model = vgg19(**MODEL_CONFIG["kwargs"])
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
    trained_acc = trainer.history.final_test_accuracy
    exploration = engine.coverage.exploration_rate()
    print(f"trained DST-EE @ 95%: accuracy {trained_acc:.3f}, "
          f"exploration R {exploration:.3f}")

    print("\nPer-layer final densities (ERK keeps narrow layers denser):")
    for row in layer_density_table(masked)[:6]:
        print(f"  {row['layer']:24s} {row['shape']:>14s} density={row['density']}")
    print("  ...\n")

    # --------------------------------------------------- compile CSR
    compiled = compile_sparse_model(masked)
    compiled_acc = evaluate_classifier(compiled, test_loader)
    csr_bytes, dense_bytes = sparse_storage_bytes(compiled)
    print(f"compiled (CSR) accuracy:  {compiled_acc:.3f}")
    print(f"weight storage: {csr_bytes / 1024:.0f} KiB CSR vs "
          f"{dense_bytes / 1024:.0f} KiB dense "
          f"({csr_bytes / dense_bytes:.2f}x)")

    # ------------------------------------------------- export + reload
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "dst_ee_vgg19.npz"
        export_model(compiled, path, model_config=MODEL_CONFIG,
                     metadata={"method": "dst_ee", "sparsity": 0.95,
                               "exploration_rate": exploration})
        print(f"artifact: {path.stat().st_size / 1024:.0f} KiB")
        loaded = load_model(path)  # rebuilds the architecture, checks the fingerprint

    loaded_acc = evaluate_classifier(loaded.model, test_loader)
    x = data.test.inputs[:64]
    with no_grad():
        reference = compiled(Tensor(x)).data
    identical = np.array_equal(loaded.predict(x), reference)
    print(f"reloaded artifact accuracy: {loaded_acc:.3f} "
          f"(predictions bitwise identical: {identical}, "
          f"exploration R {loaded.metadata['exploration_rate']:.3f})")


if __name__ == "__main__":
    main()

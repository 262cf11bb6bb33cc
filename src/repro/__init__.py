"""repro — reproduction of "Dynamic Sparse Training via Balancing the
Exploration-Exploitation Trade-off" (DST-EE, DAC 2023).

Layered architecture (each layer only depends on the ones below it):

1. :mod:`repro.autograd` — numpy reverse-mode autodiff (tensors, conv, spmm).
2. :mod:`repro.nn` / :mod:`repro.optim` — layers, losses, SGD/Adam, LR
   schedules.
3. :mod:`repro.models` — VGG/ResNet/MLP/GNN architectures.
4. :mod:`repro.data` — synthetic CIFAR/ImageNet/graph stand-ins + loaders.
5. :mod:`repro.sparse` — the paper's contribution: masks, ERK, coverage
   counters, the Eq. 1 acquisition function, the drop-and-grow engine, and
   every compared baseline (SET/RigL/DeepR/SNFS/DSR/MEST/SNIP/GraSP/
   SynFlow/STR/GMP/ADMM).
6. :mod:`repro.train` / :mod:`repro.metrics` / :mod:`repro.flops` —
   training loop, metrics (exploration rate R, ΔL_g, convergence), FLOPs.
7. :mod:`repro.parallel` — the parallel execution engine: multiprocess
   experiment sharding (``REPRO_NPROC``) and data-parallel gradient
   workers over shared memory (``Trainer(n_workers=...)``).
8. :mod:`repro.serve` — serving compiled sparse models in one process:
   artifacts, micro-batching, the JSON HTTP frontend and hot-swap.
9. :mod:`repro.experiments` — per-table runners regenerating the paper's
   evaluation, sharded through :mod:`repro.parallel`.

Quickstart::

    import numpy as np
    from repro.data import cifar10_like
    from repro.experiments import run_image_classification
    from repro.models import vgg19

    data = cifar10_like(n_train=1024, n_test=512)
    result = run_image_classification(
        "dst_ee", lambda seed: vgg19(10, width_mult=0.1, input_size=12, seed=seed),
        data, sparsity=0.9, epochs=3,
    )
    print(result.final_accuracy, result.exploration_rate)
"""

from repro import autograd, nn, optim
from repro.hotpath import hot_path
from repro.rng import DEFAULT_SEED, resolve_rng

__version__ = "1.0.0"

__all__ = [
    "autograd",
    "nn",
    "optim",
    "hot_path",
    "resolve_rng",
    "DEFAULT_SEED",
    "__version__",
]

"""Optimizers and learning-rate schedules."""

from repro.optim.sgd import SGD, Optimizer
from repro.optim.adam import Adam
from repro.optim.lr_scheduler import CosineAnnealingLR, LRScheduler

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRScheduler",
    "CosineAnnealingLR",
]

"""Training harness."""

from repro.train.trainer import Trainer, evaluate_classifier
from repro.train.history import EpochRecord, History
from repro.train.callbacks import Callback
from repro.train.checkpoint import (
    CheckpointCallback,
    latest_checkpoint,
    load_training_checkpoint,
    resolve_resume_path,
    save_training_checkpoint,
)

__all__ = [
    "Trainer",
    "evaluate_classifier",
    "History",
    "EpochRecord",
    "Callback",
    "CheckpointCallback",
    "latest_checkpoint",
    "load_training_checkpoint",
    "resolve_resume_path",
    "save_training_checkpoint",
]

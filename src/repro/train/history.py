"""Training history container."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EpochRecord", "History"]


@dataclass
class EpochRecord:
    """Metrics of one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float | None
    learning_rate: float
    sparsity: float | None = None
    exploration_rate: float | None = None
    steps_per_sec: float | None = None
    mask_update_ms: float | None = None


@dataclass
class History:
    """Per-epoch records plus convenience accessors."""

    epochs: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.epochs.append(record)

    @property
    def final_test_accuracy(self) -> float | None:
        for record in reversed(self.epochs):
            if record.test_accuracy is not None:
                return record.test_accuracy
        return None

    @property
    def best_test_accuracy(self) -> float | None:
        scores = [r.test_accuracy for r in self.epochs if r.test_accuracy is not None]
        return max(scores) if scores else None

    def series(self, attribute: str) -> list:
        """Column extraction, e.g. ``history.series("train_loss")``."""
        return [getattr(record, attribute) for record in self.epochs]

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self):
        return iter(self.epochs)

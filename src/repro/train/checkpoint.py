"""Resume-exact training checkpoints (versioned npz, atomic writes).

A *training checkpoint* is the complete state returned by
:meth:`repro.train.Trainer.state_dict` — model parameters, masks, the
per-layer :class:`~repro.sparse.budget.DensityBudget` allocations (which
drift under cross-layer rebalancing, so they cannot be reconstructed from
the run configuration), optimizer moments, scheduler position, DST engine
state (coverage counters, engine RNG, drop-and-grow history), epoch
history, data-pipeline RNG states and, mid-epoch, the partial epoch's
progress.  Restoring it into a trainer built from the same configuration
continues the run *bitwise identically* to an uninterrupted one.

On-disk format (version 1)
--------------------------
A single ``.npz`` archive:

* every ndarray in the state tree is stored as its own compressed entry
  (``a0``, ``a1``, ...) in native dtype;
* everything else (scalars, RNG bit-generator states, history records) is
  one JSON document under ``__checkpoint__``, with ndarray leaves replaced
  by ``{"__ndarray__": "<entry>"}`` placeholders;
* the JSON document carries ``format_version`` — loaders refuse versions
  they do not understand instead of mis-restoring.

Writes are atomic: the archive is written to a temporary file in the target
directory, flushed and fsynced, then ``os.replace``d into place — a reader
(or a resumed run) never observes a torn checkpoint, no matter when the
writer was killed.

:class:`CheckpointCallback` wires this into the trainer at epoch and/or
step granularity with optional ``keep_last`` retention;
:func:`latest_checkpoint` finds the newest checkpoint in a directory, and
:func:`resolve_resume_path` turns a ``--resume`` target into the file to
load.
"""

from __future__ import annotations

import io
import json
import os
import pathlib

import numpy as np

from repro.train.callbacks import Callback
from repro.train.history import EpochRecord

__all__ = [
    "FORMAT_VERSION",
    "CheckpointCallback",
    "atomic_write_bytes",
    "decode_state_tree",
    "encode_state_tree",
    "latest_checkpoint",
    "list_checkpoints",
    "load_training_checkpoint",
    "resolve_resume_path",
    "save_training_checkpoint",
]

FORMAT_VERSION = 1

_META_KEY = "__checkpoint__"
_ARRAY_MARKER = "__ndarray__"


def _encode(node, arrays: dict) -> object:
    """Replace ndarray leaves with archive placeholders, JSON-ify the rest."""
    if isinstance(node, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = node
        return {_ARRAY_MARKER: key}
    if isinstance(node, dict):
        encoded = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"checkpoint dict keys must be str, got {type(key).__name__}"
                )
            if key == _ARRAY_MARKER:
                raise ValueError(f"reserved key {_ARRAY_MARKER!r} in state dict")
            encoded[key] = _encode(value, arrays)
        return encoded
    if isinstance(node, (list, tuple)):
        return [_encode(value, arrays) for value in node]
    if isinstance(node, np.generic):  # numpy scalar -> native scalar
        return node.item()
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise TypeError(f"cannot checkpoint object of type {type(node).__name__}")


def _decode(node, archive) -> object:
    if isinstance(node, dict):
        if set(node) == {_ARRAY_MARKER}:
            return archive[node[_ARRAY_MARKER]]
        return {key: _decode(value, archive) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(value, archive) for value in node]
    return node


def encode_state_tree(state) -> tuple[object, dict]:
    """Split a state tree into a JSON-able tree plus its ndarray leaves.

    Public form of the checkpoint codec, shared with the serving artifact
    format (:mod:`repro.serve.artifact`): returns ``(tree, arrays)`` where
    ``tree`` is JSON-serializable with every ndarray leaf replaced by an
    archive placeholder, and ``arrays`` maps placeholder keys to the
    original arrays.
    """
    arrays: dict[str, np.ndarray] = {}
    return _encode(state, arrays), arrays


def decode_state_tree(tree, archive) -> object:
    """Inverse of :func:`encode_state_tree` (``archive`` maps key->array)."""
    return _decode(tree, archive)


def atomic_write_bytes(path, payload: bytes) -> pathlib.Path:
    """Write ``payload`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file lives next to the target so ``os.replace`` stays on
    one filesystem (and therefore atomic); a killed writer leaves at most a
    stale ``*.tmp-<pid>`` file, never a torn target.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def save_training_checkpoint(path, state: dict) -> pathlib.Path:
    """Write ``state`` (a ``Trainer.state_dict()`` tree) to ``path`` atomically."""
    arrays: dict[str, np.ndarray] = {}
    tree = _encode(state, arrays)
    meta = json.dumps({"format_version": FORMAT_VERSION, "state": tree})
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **{_META_KEY: np.array(meta)}, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


def load_training_checkpoint(path) -> dict:
    """Load a checkpoint written by :func:`save_training_checkpoint`.

    Returns the state tree for ``Trainer.load_state_dict``.  Raises
    ``ValueError`` on unknown format versions.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive[_META_KEY].item()))
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {path} has format version {version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        return _decode(meta["state"], archive)


def list_checkpoints(directory, prefix: str = "ckpt") -> list[tuple[int, pathlib.Path]]:
    """``(step, path)`` of every checkpoint in ``directory``, step-ascending."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for candidate in directory.glob(f"{prefix}-*.npz"):
        stem = candidate.name[len(prefix) + 1 : -len(".npz")]
        try:
            found.append((int(stem), candidate))
        except ValueError:
            continue
    found.sort()
    return found


def latest_checkpoint(directory, prefix: str = "ckpt") -> pathlib.Path | None:
    """Newest checkpoint (highest global step) in ``directory``, or None."""
    checkpoints = list_checkpoints(directory, prefix)
    return checkpoints[-1][1] if checkpoints else None


def resolve_resume_path(resume_from) -> pathlib.Path | None:
    """A checkpoint file, the latest checkpoint of a directory, or None.

    A directory without checkpoints — including a directory that does not
    exist yet — resolves to None (fresh start): this is what lets a
    resumed sweep treat never-started cells uniformly.  An explicitly
    named checkpoint *file* (``*.npz``) that is missing raises instead of
    silently restarting from scratch.
    """
    if resume_from is None:
        return None
    resume_from = pathlib.Path(resume_from)
    if resume_from.is_dir():
        return latest_checkpoint(resume_from)
    if resume_from.exists():
        return resume_from
    if resume_from.suffix == ".npz":
        raise FileNotFoundError(f"resume checkpoint not found: {resume_from}")
    return None


class CheckpointCallback(Callback):
    """Save training checkpoints on a step and/or epoch cadence.

    Parameters
    ----------
    directory:
        Where checkpoints are written (created if missing).  Files are
        named ``<prefix>-<global_step>.npz``, so an epoch-boundary save and
        a step save at the same step coalesce into one file.
    every_n_epochs:
        Save after every N completed epochs (``None`` disables the epoch
        cadence).  Default 1.
    every_n_steps:
        Additionally save every N global training steps — mid-epoch
        checkpoints carry the partial epoch's progress, so a resume
        continues at the exact batch boundary.  ``None`` (default)
        disables the step cadence.
    keep_last:
        Retain only the newest ``keep_last`` checkpoints, pruning older
        ones after each save (``None`` keeps everything).
    """

    def __init__(
        self,
        directory,
        every_n_epochs: int | None = 1,
        every_n_steps: int | None = None,
        keep_last: int | None = None,
        prefix: str = "ckpt",
    ):
        if every_n_epochs is None and every_n_steps is None:
            raise ValueError("enable at least one of every_n_epochs/every_n_steps")
        for name, value in (
            ("every_n_epochs", every_n_epochs),
            ("every_n_steps", every_n_steps),
            ("keep_last", keep_last),
        ):
            if value is not None and int(value) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.directory = pathlib.Path(directory)
        self.every_n_epochs = None if every_n_epochs is None else int(every_n_epochs)
        self.every_n_steps = None if every_n_steps is None else int(every_n_steps)
        self.keep_last = None if keep_last is None else int(keep_last)
        self.prefix = prefix
        self.last_path: pathlib.Path | None = None
        self._trainer = None

    def bind(self, trainer) -> None:
        self._trainer = trainer

    def on_step_end(self, step: int) -> None:
        if self.every_n_steps is not None and step % self.every_n_steps == 0:
            self.save()

    def on_epoch_end(self, record: EpochRecord) -> None:
        if (
            self.every_n_epochs is not None
            and (record.epoch + 1) % self.every_n_epochs == 0
        ):
            self.save()

    def save(self) -> pathlib.Path:
        """Checkpoint the bound trainer's current state now."""
        if self._trainer is None:
            raise RuntimeError(
                "CheckpointCallback is not bound to a trainer "
                "(it must run via Trainer.fit, or call bind() first)"
            )
        step = self._trainer.global_step
        path = self.directory / f"{self.prefix}-{step:010d}.npz"
        self.last_path = save_training_checkpoint(path, self._trainer.state_dict())
        self._prune()
        return self.last_path

    def _prune(self) -> None:
        if self.keep_last is None:
            return
        for _, stale in list_checkpoints(self.directory, self.prefix)[: -self.keep_last]:
            stale.unlink(missing_ok=True)

"""Declarative preprocessing spec applied to raw request payloads.

A serving artifact carries a JSON-able *preprocessing spec* so that every
consumer of the model (in-process server, HTTP frontend, router)
normalizes requests identically — the spec travels with the weights instead
of living in application code.

Spec keys (all optional unless noted):

``kind``
    ``"dense"`` (default) for float feature/image inputs, or
    ``"sequence"`` for integer token-id inputs (language models).

Dense-kind keys:

``input_shape``
    Per-example shape, e.g. ``[3, 12, 12]``.  Incoming examples are
    validated against it; flat examples of the matching total size are
    reshaped to it.
``mean`` / ``std``
    Per-channel (or scalar) normalization applied as ``(x - mean) / std``.
    Broadcast against the example shape from the left, i.e. a length-C list
    matches ``[C, H, W]`` inputs.
``flatten``
    When true, examples are flattened to 1-D after normalization (for MLP
    artifacts trained on flattened images).

Sequence-kind keys:

``max_length``
    Required.  Prompts longer than this are rejected with ``ValueError``
    (the HTTP frontend maps that to a 400 per the error contract).
``pad_id``
    Token id used to *left*-pad every prompt to exactly ``max_length``
    (default 0).  Padding to the full window means every prompt runs the
    same-shaped forward regardless of batch composition — the determinism
    contract of :class:`repro.models.CharGPT`.
``vocab_size``
    Optional; when set, token ids outside ``[0, vocab_size)`` are rejected.

Sequence batches are returned as ``int64`` token ids.  Values arriving as
floats (the JSON/HTTP path decodes numbers as float32) are accepted only
when they are exactly integral.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Preprocessor"]

_DENSE_ONLY_KEYS = ("input_shape", "mean", "std", "flatten")


class Preprocessor:
    """Compiled form of a preprocessing spec; callable on example batches."""

    def __init__(self, spec: dict | None):
        spec = dict(spec or {})
        self.spec = spec
        self.kind = str(spec.get("kind", "dense"))
        if self.kind not in ("dense", "sequence"):
            raise ValueError(f"unknown preprocessing kind {self.kind!r}")
        if self.kind == "sequence":
            self._init_sequence(spec)
            return
        self.max_length = None
        shape = spec.get("input_shape")
        self.input_shape = None if shape is None else tuple(int(s) for s in shape)
        self.flatten = bool(spec.get("flatten", False))
        mean = spec.get("mean")
        std = spec.get("std")
        self._mean = None if mean is None else self._broadcastable(np.asarray(mean, np.float32))
        self._std = None if std is None else self._broadcastable(np.asarray(std, np.float32))
        if self._std is not None and np.any(self._std == 0.0):
            raise ValueError("preprocessing std must be non-zero")

    def _init_sequence(self, spec: dict) -> None:
        for key in _DENSE_ONLY_KEYS:
            if spec.get(key) is not None:
                raise ValueError(f"spec key {key!r} does not apply to kind='sequence'")
        if spec.get("max_length") is None:
            raise ValueError("sequence preprocessing requires 'max_length'")
        self.max_length = int(spec["max_length"])
        if self.max_length <= 0:
            raise ValueError(f"max_length must be > 0, got {self.max_length}")
        self.pad_id = int(spec.get("pad_id", 0))
        vocab = spec.get("vocab_size")
        self.vocab_size = None if vocab is None else int(vocab)
        if self.vocab_size is not None and not 0 <= self.pad_id < self.vocab_size:
            raise ValueError(
                f"pad_id {self.pad_id} outside vocab of size {self.vocab_size}"
            )
        self.input_shape = None
        self.flatten = False
        self._mean = None
        self._std = None

    def _broadcastable(self, values: np.ndarray) -> np.ndarray:
        """Shape 1-D per-channel stats to broadcast over [N, C, H, W] batches."""
        if values.ndim == 1 and self.input_shape is not None and len(self.input_shape) == 3:
            return values.reshape(1, -1, 1, 1)
        return values

    def _sequence_batch(self, batch) -> np.ndarray:
        try:
            ids = np.asarray(batch)
        except ValueError:  # ragged nested lists refuse to stack
            raise ValueError(
                "sequence batch must be rectangular (N, length) token ids; "
                "pad or submit prompts one example at a time"
            ) from None
        if ids.dtype == object or ids.ndim != 2:
            raise ValueError(
                "sequence batch must be rectangular (N, length) token ids; "
                "pad or submit prompts one example at a time"
            )
        if ids.shape[1] == 0:
            raise ValueError("empty sequence: at least one token id is required")
        if ids.shape[1] > self.max_length:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds the artifact "
                f"max_length {self.max_length}"
            )
        if not np.issubdtype(ids.dtype, np.integer):
            rounded = np.rint(ids)
            if not np.all(ids == rounded):
                raise ValueError("token ids must be integers")
            ids = rounded
        ids = ids.astype(np.int64)
        if self.vocab_size is not None:
            if np.any(ids < 0) or np.any(ids >= self.vocab_size):
                raise ValueError(
                    f"token ids must lie in [0, {self.vocab_size}); "
                    f"got range [{ids.min()}, {ids.max()}]"
                )
        elif np.any(ids < 0):
            raise ValueError("token ids must be non-negative")
        out = np.full((ids.shape[0], self.max_length), self.pad_id, dtype=np.int64)
        out[:, self.max_length - ids.shape[1] :] = ids
        return np.ascontiguousarray(out)

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        """Normalize one batch (leading axis = examples) to model input."""
        if self.kind == "sequence":
            return self._sequence_batch(batch)
        batch = np.asarray(batch, dtype=np.float32)
        if self.input_shape is not None:
            per_example = batch.shape[1:]
            if per_example != self.input_shape:
                expected = int(np.prod(self.input_shape))
                if per_example == (expected,):
                    batch = batch.reshape((batch.shape[0],) + self.input_shape)
                else:
                    raise ValueError(
                        f"example shape {per_example} does not match artifact "
                        f"input_shape {self.input_shape}"
                    )
        if self._mean is not None:
            batch = batch - self._mean
        if self._std is not None:
            batch = batch / self._std
        if self.flatten:
            batch = batch.reshape(batch.shape[0], -1)
        return np.ascontiguousarray(batch, dtype=np.float32)

"""Versioned serving artifacts: compiled sparse model → one deployable file.

An artifact is the unit that leaves the training side and enters the
serving side.  It stores, in a single compressed ``.npz``:

* one record per compiled :class:`~repro.sparse.inference.SparseLinear` /
  :class:`~repro.sparse.inference.SparseConv2d` layer: the CSR arrays its
  forward reads (``data``/``indices``/``indptr``), its ``block_size``, its
  geometry and its bias — at the paper's 90–98% sparsities this is a
  fraction of the dense weight bytes;
* the dense state of everything that stayed dense (biases were folded into
  the layer records; batch-norm parameters and running stats, unmasked
  layers);
* a *model config* ``{"builder": ..., "kwargs": ...}`` resolved against
  :data:`repro.models.MODEL_REGISTRY` at load time to rebuild the
  architecture;
* a preprocessing spec (see :mod:`repro.serve.preprocess`) and free-form
  metadata (method, sparsity, accuracy, ...).

Like training checkpoints the file is written atomically (tmp + fsync +
rename) and carries a ``format_version`` that loaders refuse to guess
about, plus a SHA-256 *fingerprint* over the manifest and every weight
array — :func:`load_model` recomputes it by default, so a corrupted or
tampered artifact fails loudly instead of serving garbage predictions.
Each layer record is also checked against the rebuilt architecture before
use (geometry, CSR bounds, bias length), so even an artifact whose
fingerprint was recomputed after editing cannot drive the sparse kernels
out of bounds.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.models import build_model
from repro.nn.module import Module
from repro.serve.preprocess import Preprocessor
from repro.sparse.inference import SparseConv2d, SparseLinear, compile_sparse_model
from repro.sparse.masked import MaskedModel
from repro.train.checkpoint import (
    atomic_write_bytes,
    decode_state_tree,
    encode_state_tree,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "LoadedModel",
    "export_model",
    "load_model",
    "read_manifest",
]

ARTIFACT_VERSION = 2

_META_KEY = "__artifact__"
_KIND = "repro-sparse-model"


class ArtifactError(RuntimeError):
    """Raised for malformed, incompatible, or corrupted artifacts."""


# Record type -> (architecture layer, compiled layer, geometry attributes).
_LAYER_TYPES = {
    "linear": (nn.Linear, SparseLinear, ("in_features", "out_features")),
    "conv2d": (
        nn.Conv2d,
        SparseConv2d,
        ("in_channels", "out_channels", "kernel_size", "stride", "padding"),
    ),
}
_PAIRS = ("kernel_size", "stride", "padding")


def _pair(value) -> list[int]:
    if isinstance(value, (tuple, list)):
        return [int(value[0]), int(value[1])]
    return [int(value), int(value)]


def _geometry(module, keys) -> dict:
    """JSON form of a layer's geometry: ints, and ``[h, w]`` for conv pairs."""
    return {
        key: _pair(getattr(module, key)) if key in _PAIRS else int(getattr(module, key))
        for key in keys
    }


def _layer_records(model: Module) -> list[dict]:
    records: list[dict] = []
    for name, module in model.named_modules():
        for kind, (_, compiled_cls, keys) in _LAYER_TYPES.items():
            if isinstance(module, compiled_cls):
                matrix = module.weight_csr
                records.append(
                    {
                        "name": name,
                        "type": kind,
                        "block_size": module.block_size,
                        **_geometry(module, keys),
                        "data": matrix.data,
                        "indices": matrix.indices,
                        "indptr": matrix.indptr,
                        "bias": module.bias_data,
                    }
                )
    return records


def _fingerprint(manifest_sans_fp: dict, arrays: dict) -> str:
    """SHA-256 over the canonical manifest plus every array's raw bytes."""
    digest = hashlib.sha256()
    digest.update(json.dumps(manifest_sans_fp, sort_keys=True, separators=(",", ":")).encode())
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.tobytes())
    return f"sha256:{digest.hexdigest()}"


def export_model(
    model: Module | MaskedModel,
    path,
    *,
    model_config: dict,
    preprocessing: dict | None = None,
    metadata: dict | None = None,
) -> pathlib.Path:
    """Write ``model`` (compiled, or a :class:`MaskedModel` to compile) to ``path``.

    ``model_config`` must be ``{"builder": <registry name>, "kwargs": {...}}``;
    it is validated against :data:`repro.models.MODEL_REGISTRY` here, at
    export time, so a typo fails next to the training run instead of at
    deployment.  Returns the written path.
    """
    if isinstance(model, MaskedModel):
        model = compile_sparse_model(model)
    if "builder" not in model_config:
        raise ArtifactError("model_config must carry a 'builder' registry name")
    build_model(model_config["builder"], **dict(model_config.get("kwargs", {})))

    layers = _layer_records(model)
    if not layers:
        raise ArtifactError(
            "model has no compiled sparse layers; run compile_sparse_model "
            "(or pass the MaskedModel) before exporting"
        )
    Preprocessor(preprocessing)  # validate the spec at export time

    sparse_names = {record["name"] for record in layers}
    dense_state = {
        key: value
        for key, value in model.state_dict().items()
        if key.rsplit(".", 1)[0] not in sparse_names
    }

    tree, arrays = encode_state_tree({"layers": layers, "dense_state": dense_state})
    manifest = {
        "format_version": ARTIFACT_VERSION,
        "kind": _KIND,
        "model_config": {
            "builder": model_config["builder"],
            "kwargs": dict(model_config.get("kwargs", {})),
        },
        "preprocessing": dict(preprocessing) if preprocessing else None,
        "metadata": dict(metadata) if metadata else None,
        "state": tree,
    }
    manifest["fingerprint"] = _fingerprint(manifest, arrays)

    buffer = io.BytesIO()
    np.savez_compressed(buffer, **{_META_KEY: np.array(json.dumps(manifest))}, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


@dataclass
class LoadedModel:
    """A deserialized artifact, ready to serve."""

    model: Module
    model_config: dict
    preprocessing: dict | None
    metadata: dict | None
    fingerprint: str
    path: pathlib.Path
    preprocessor: Preprocessor = field(repr=False, default=None)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Preprocess + forward one batch (no autograd, eval mode)."""
        from repro.autograd import no_grad
        from repro.autograd.tensor import Tensor

        batch = self.preprocessor(batch)
        with no_grad():
            out = self.model(Tensor(batch))
        return np.asarray(out.data)


def _validate_manifest(manifest: dict, path) -> dict:
    """Shared kind/format-version gate for every artifact reader."""
    if manifest.get("kind") != _KIND:
        raise ArtifactError(f"{path} has kind {manifest.get('kind')!r}, not {_KIND!r}")
    version = manifest.get("format_version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact {path} has format version {version!r}; "
            f"this build reads version {ARTIFACT_VERSION}"
        )
    return manifest


def read_manifest(path) -> dict:
    """Manifest of an artifact without rebuilding the model (cheap)."""
    with np.load(pathlib.Path(path), allow_pickle=False) as archive:
        if _META_KEY not in archive.files:
            raise ArtifactError(f"{path} is not a serving artifact (no manifest)")
        manifest = json.loads(str(archive[_META_KEY].item()))
    return _validate_manifest(manifest, path)


def _locate(root: Module, dotted: str) -> tuple[Module, str]:
    """(parent module, child name) of the layer at ``dotted`` in ``root``."""
    parent = root
    *path, leaf = dotted.split(".")
    for part in path:
        parent = parent._modules.get(part)
        if parent is None:
            break
    if parent is None or leaf not in parent._modules:
        raise ArtifactError(f"artifact layer {dotted!r} not found in rebuilt architecture")
    return parent, leaf


def _check_record(record: dict, dense, keys) -> None:
    """Refuse a layer record that does not fit the rebuilt layer ``dense``.

    ``csr_matvecs`` checks no bounds, so a bad ``indptr`` or index would
    read or write outside the operands instead of raising.
    """
    name = record["name"]
    stored = {key: record.get(key) for key in keys}
    if stored != _geometry(dense, keys):
        raise ArtifactError(
            f"artifact layer {name!r} has geometry {stored}, "
            f"but the architecture's layer has {_geometry(dense, keys)}"
        )
    block_size = record.get("block_size")
    if type(block_size) is not int or block_size < 1:
        raise ArtifactError(f"artifact layer {name!r}: block_size must be a positive int")
    # The compiled layer's matrix: (out, in) for a linear, the tap-stacked
    # (kh*kw*C_out, C_in) for a conv.
    cols = dense.weight.shape[1]
    rows = dense.weight.size // cols
    data, indices, indptr = (record.get(key) for key in ("data", "indices", "indptr"))
    typed = (data, np.float32), (indices, np.int32), (indptr, np.int32)
    if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == t for a, t in typed):
        raise ArtifactError(
            f"artifact layer {name!r}: CSR arrays must be 1-D float32 data "
            "and int32 indices/indptr"
        )
    if indptr.size != rows + 1 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise ArtifactError(
            f"artifact layer {name!r}: indptr must hold {rows + 1} non-decreasing "
            "entries starting at 0"
        )
    nnz = int(indptr[-1])
    if indices.size != nnz or data.size != nnz:
        raise ArtifactError(
            f"artifact layer {name!r}: indptr ends at {nnz}, but there are "
            f"{indices.size} indices and {data.size} values"
        )
    if nnz and (indices.min() < 0 or indices.max() >= cols):
        raise ArtifactError(f"artifact layer {name!r}: column index outside [0, {cols})")
    bias = record.get("bias")
    out = dense.weight.shape[0]
    if dense.bias is None:
        if bias is not None:
            raise ArtifactError(f"artifact layer {name!r} has a bias; the architecture's has none")
    elif not (isinstance(bias, np.ndarray) and bias.dtype == np.float32 and bias.shape == (out,)):
        raise ArtifactError(f"artifact layer {name!r}: bias must be float32 of shape ({out},)")


def load_model(path, verify: bool = True) -> LoadedModel:
    """Rebuild a served model from an artifact written by :func:`export_model`.

    With ``verify=True`` (default) the stored fingerprint is recomputed
    from the file contents and a mismatch raises :class:`ArtifactError` —
    bit-rot and truncation are detected before the first prediction.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if _META_KEY not in archive.files:
            raise ArtifactError(f"{path} is not a serving artifact (no manifest)")
        manifest = json.loads(str(archive[_META_KEY].item()))
        arrays = {key: archive[key] for key in archive.files if key != _META_KEY}
    _validate_manifest(manifest, path)
    fingerprint = manifest.get("fingerprint")
    if verify:
        expected = _fingerprint(
            {key: value for key, value in manifest.items() if key != "fingerprint"},
            arrays,
        )
        if fingerprint != expected:
            raise ArtifactError(
                f"artifact {path} failed fingerprint verification "
                f"(stored {fingerprint}, recomputed {expected}); file corrupted?"
            )

    state = decode_state_tree(manifest["state"], arrays)
    config = manifest["model_config"]
    model = build_model(config["builder"], **dict(config.get("kwargs", {})))

    for record in state["layers"]:
        kind = record.get("type") if isinstance(record, dict) else None
        if kind not in _LAYER_TYPES:
            raise ArtifactError(f"unknown artifact layer type {kind!r}")
        dense_cls, compiled_cls, keys = _LAYER_TYPES[kind]
        parent, leaf = _locate(model, str(record.get("name")))
        dense = parent._modules[leaf]
        if not isinstance(dense, dense_cls):
            raise ArtifactError(
                f"artifact layer {record['name']!r} is a {kind}, "
                f"but the architecture has a {type(dense).__name__} there"
            )
        _check_record(record, dense, keys)
        csr = (record["data"], record["indices"], record["indptr"])
        layer = compiled_cls.from_csr(dense, *csr, record["bias"], record["block_size"])
        parent.add_module(leaf, layer)

    model.load_state_dict(state["dense_state"])
    model.eval()
    return LoadedModel(
        model=model,
        model_config=config,
        preprocessing=manifest.get("preprocessing"),
        metadata=manifest.get("metadata"),
        fingerprint=fingerprint,
        path=path,
        preprocessor=Preprocessor(manifest.get("preprocessing")),
    )

"""Serving artifacts: round-trip fidelity, fingerprinting, failure modes."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.models import MLP, register_model, vgg11
from repro.serve import ArtifactError, export_model, load_model, read_manifest
from repro.sparse import MaskedModel
from repro.sparse.inference import SparseConv2d, SparseLinear, compile_sparse_model

RNG = np.random.default_rng(0)

MLP_CONFIG = {
    "builder": "mlp",
    "kwargs": {"in_features": 48, "hidden": [32, 32], "num_classes": 5, "seed": 0},
}


def _mlp_artifact(tmp_path, sparsity=0.9, preprocessing=None, metadata=None):
    model = MLP(48, (32, 32), 5, seed=0)
    masked = MaskedModel(model, sparsity, distribution="uniform",
                         rng=np.random.default_rng(1))
    compiled = compile_sparse_model(masked)
    path = tmp_path / "model.npz"
    export_model(compiled, path, model_config=MLP_CONFIG,
                 preprocessing=preprocessing, metadata=metadata)
    return compiled, path


class TestRoundTrip:
    def test_predictions_bitwise_equal(self, tmp_path):
        compiled, path = _mlp_artifact(tmp_path)
        loaded = load_model(path)
        x = RNG.standard_normal((6, 48)).astype(np.float32)
        with no_grad():
            expected = compiled(Tensor(x)).data
        assert np.array_equal(loaded.predict(x), expected)

    def test_conv_model_round_trip(self, tmp_path):
        model = vgg11(num_classes=4, width_mult=0.1, input_size=8, seed=3)
        masked = MaskedModel(model, 0.9, rng=np.random.default_rng(3))
        compiled = compile_sparse_model(masked)
        path = tmp_path / "vgg.npz"
        export_model(
            compiled, path,
            model_config={
                "builder": "vgg11",
                "kwargs": {"num_classes": 4, "width_mult": 0.1,
                           "input_size": 8, "seed": 3},
            },
        )
        loaded = load_model(path)
        x = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
        with no_grad():
            expected = compiled(Tensor(x)).data
        assert np.array_equal(loaded.predict(x), expected)

    def test_masked_model_accepted_directly(self, tmp_path):
        model = MLP(48, (32, 32), 5, seed=0)
        masked = MaskedModel(model, 0.8, distribution="uniform",
                             rng=np.random.default_rng(1))
        path = tmp_path / "m.npz"
        export_model(masked, path, model_config=MLP_CONFIG)
        assert load_model(path).predict(np.zeros((1, 48), np.float32)).shape == (1, 5)

    def test_unmasked_layer_stays_dense_and_round_trips(self, tmp_path):
        model = MLP(48, (32,), 5, seed=0)
        linears = [m for m in model.modules() if isinstance(m, nn.Linear)]
        masked = MaskedModel(model, 0.8, include_modules=[linears[0]],
                             rng=np.random.default_rng(0))
        compiled = compile_sparse_model(masked)
        path = tmp_path / "m.npz"
        export_model(
            compiled, path,
            model_config={
                "builder": "mlp",
                "kwargs": {"in_features": 48, "hidden": [32],
                           "num_classes": 5, "seed": 7},
            },
        )
        loaded = load_model(path)
        kinds = [type(m).__name__ for m in loaded.model.modules()]
        assert kinds.count("SparseLinear") == 1
        assert kinds.count("Linear") == 1
        x = RNG.standard_normal((3, 48)).astype(np.float32)
        with no_grad():
            expected = compiled(Tensor(x)).data
        # seed=7 in the rebuild config proves the dense layer's weights come
        # from the artifact, not from re-initialization.
        assert np.array_equal(loaded.predict(x), expected)

    def test_metadata_and_preprocessing_round_trip(self, tmp_path):
        spec = {"input_shape": [48], "mean": 0.5, "std": 2.0}
        meta = {"method": "dst_ee", "sparsity": 0.9, "accuracy": 0.42}
        _, path = _mlp_artifact(tmp_path, preprocessing=spec, metadata=meta)
        loaded = load_model(path)
        assert loaded.metadata == meta
        assert loaded.preprocessing == spec
        manifest = read_manifest(path)
        assert manifest["metadata"] == meta

    def test_preprocessing_applied_to_predictions(self, tmp_path):
        spec = {"input_shape": [48], "mean": 0.5, "std": 2.0}
        compiled, path = _mlp_artifact(tmp_path, preprocessing=spec)
        loaded = load_model(path)
        x = RNG.standard_normal((4, 48)).astype(np.float32)
        with no_grad():
            expected = compiled(Tensor((x - 0.5) / 2.0)).data
        assert np.array_equal(loaded.predict(x), expected)

    def test_loaded_model_is_eval_and_raises_in_train(self, tmp_path):
        _, path = _mlp_artifact(tmp_path)
        loaded = load_model(path)
        assert not loaded.model.training
        loaded.model.train()
        with pytest.raises(RuntimeError, match="inference-only"):
            loaded.predict(np.zeros((1, 48), np.float32))


class TestValidation:
    def test_export_requires_sparse_layers(self, tmp_path):
        model = MLP(48, (32,), 5, seed=0)
        with pytest.raises(ArtifactError, match="no compiled sparse layers"):
            export_model(model, tmp_path / "m.npz", model_config=MLP_CONFIG)

    def test_export_rejects_unknown_builder(self, tmp_path):
        model = MLP(48, (32, 32), 5, seed=0)
        masked = MaskedModel(model, 0.8, rng=np.random.default_rng(1))
        compiled = compile_sparse_model(masked)
        with pytest.raises(KeyError, match="unknown model builder"):
            export_model(compiled, tmp_path / "m.npz",
                         model_config={"builder": "nope", "kwargs": {}})

    def test_fingerprint_detects_tampering(self, tmp_path):
        _, path = _mlp_artifact(tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            entries = {key: archive[key].copy() for key in archive.files}
        # Nudge one weight value and rewrite an otherwise-valid archive: the
        # zip layer cannot notice, only the fingerprint can.
        for key, value in entries.items():
            if key != "__artifact__" and value.dtype == np.float32 and value.size:
                value.reshape(-1)[0] += 1.0
                break
        np.savez(path, **entries)
        with pytest.raises(ArtifactError, match="fingerprint"):
            load_model(path)

    def test_verify_false_skips_fingerprint(self, tmp_path):
        _, path = _mlp_artifact(tmp_path)
        loaded = load_model(path, verify=False)
        assert loaded.fingerprint.startswith("sha256:")

    def test_rejects_non_artifact_npz(self, tmp_path):
        other = tmp_path / "other.npz"
        np.savez(other, a=np.zeros(3))
        with pytest.raises(ArtifactError, match="not a serving artifact"):
            load_model(other)
        with pytest.raises(ArtifactError, match="not a serving artifact"):
            read_manifest(other)

    def test_rejects_future_format_version(self, tmp_path, monkeypatch):
        import repro.serve.artifact as artifact_mod

        monkeypatch.setattr(artifact_mod, "ARTIFACT_VERSION", 99)
        _, path = _mlp_artifact(tmp_path)
        monkeypatch.undo()
        with pytest.raises(ArtifactError, match="format version"):
            load_model(path)

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        _, path = _mlp_artifact(tmp_path)
        leftovers = [p for p in path.parent.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_registered_custom_builder_round_trips(self, tmp_path):
        register_model("tiny_mlp_for_test", lambda seed=0: MLP(48, (32, 32), 5, seed=seed))
        model = MLP(48, (32, 32), 5, seed=0)
        masked = MaskedModel(model, 0.9, distribution="uniform",
                             rng=np.random.default_rng(1))
        compiled = compile_sparse_model(masked)
        path = tmp_path / "m.npz"
        export_model(compiled, path,
                     model_config={"builder": "tiny_mlp_for_test",
                                   "kwargs": {"seed": 0}})
        loaded = load_model(path)
        assert isinstance(loaded.model.body[0], SparseLinear)


class TestManifest:
    def test_manifest_is_json_clean(self, tmp_path):
        _, path = _mlp_artifact(tmp_path, metadata={"k": 1})
        manifest = read_manifest(path)
        json.dumps(manifest)  # fully JSON-serializable
        assert manifest["format_version"] == 2
        assert manifest["kind"] == "repro-sparse-model"
        assert manifest["fingerprint"].startswith("sha256:")

    def test_layer_records_cover_all_sparse_layers(self, tmp_path):
        compiled, path = _mlp_artifact(tmp_path)
        manifest = read_manifest(path)
        sparse = [m for m in compiled.modules()
                  if isinstance(m, (SparseLinear, SparseConv2d))]
        assert len(manifest["state"]["layers"]) == len(sparse)


class TestBlockArtifacts:
    """BSR (block-structured) layers through the export/load round-trip."""

    def _block_artifact(self, tmp_path):
        # (32, 48) and (32, 32) tile evenly at B=4; the (5, 32) head does
        # not and must round-trip through the unstructured CSR fallback.
        model = MLP(48, (32, 32), 5, seed=0)
        masked = MaskedModel(model, 0.9, distribution="uniform",
                             rng=np.random.default_rng(1), block_size=4)
        compiled = compile_sparse_model(masked)
        path = tmp_path / "block.npz"
        export_model(compiled, path, model_config=MLP_CONFIG)
        return compiled, path

    def test_predictions_bitwise_equal_with_fingerprint(self, tmp_path):
        compiled, path = self._block_artifact(tmp_path)
        loaded = load_model(path)  # verify=True: fingerprint checked
        x = RNG.standard_normal((6, 48)).astype(np.float32)
        with no_grad():
            expected = compiled(Tensor(x)).data
        assert np.array_equal(loaded.predict(x), expected)

    def test_manifest_records_block_sizes(self, tmp_path):
        _, path = self._block_artifact(tmp_path)
        manifest = read_manifest(path)
        # Unstructured fallback records omit the key (default 1).
        block_sizes = sorted(r.get("block_size", 1)
                             for r in manifest["state"]["layers"])
        assert block_sizes == [1, 4, 4]

    def test_loaded_layers_use_bsr_structure(self, tmp_path):
        _, path = self._block_artifact(tmp_path)
        loaded = load_model(path)
        layers = [m for m in loaded.model.modules() if isinstance(m, SparseLinear)]
        assert sorted(m.block_size for m in layers) == [1, 4, 4]

    def test_fingerprint_detects_tampering_in_block_payload(self, tmp_path):
        _, path = self._block_artifact(tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            entries = {key: archive[key].copy() for key in archive.files}
        # Corrupt the first BSR value payload in an otherwise-valid archive:
        # only the fingerprint can notice.
        for key, value in entries.items():
            if key != "__artifact__" and value.dtype == np.float32 and value.size:
                value.reshape(-1)[0] += 1.0
                break
        np.savez(path, **entries)
        with pytest.raises(ArtifactError, match="fingerprint"):
            load_model(path)

    def test_conv_block_model_round_trip(self, tmp_path):
        model = vgg11(num_classes=4, width_mult=0.25, input_size=8, seed=3)
        masked = MaskedModel(model, 0.9, rng=np.random.default_rng(3),
                             block_size=4)
        compiled = compile_sparse_model(masked)
        path = tmp_path / "vgg_block.npz"
        export_model(
            compiled, path,
            model_config={
                "builder": "vgg11",
                "kwargs": {"num_classes": 4, "width_mult": 0.25,
                           "input_size": 8, "seed": 3},
            },
        )
        loaded = load_model(path)
        x = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
        with no_grad():
            expected = compiled(Tensor(x)).data
        assert np.array_equal(loaded.predict(x), expected)


# Loads an artifact and runs one prediction.  Exit 3 means load_model
# refused it with ArtifactError; a crash in the sparse kernels shows up as
# a negative (signal) exit code without taking pytest down with it.
_LOAD_AND_PREDICT = """
import sys
import numpy as np
from repro.serve import ArtifactError, load_model
try:
    loaded = load_model(sys.argv[1])
except ArtifactError as exc:
    print(exc)
    sys.exit(3)
loaded.predict(np.ones((4, 48), np.float32))
"""


def _recraft(path, edit):
    """Apply ``edit(first_layer_record, arrays)`` and re-sign the artifact,
    so that only the load-time record checks can catch the change."""
    import repro.serve.artifact as artifact_mod

    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key].copy() for key in archive.files if key != "__artifact__"}
        manifest = json.loads(str(archive["__artifact__"].item()))
    record = manifest["state"]["layers"][0]
    edit(record, {key: arrays[ref["__ndarray__"]] for key, ref in record.items()
                  if isinstance(ref, dict) and "__ndarray__" in ref})
    manifest.pop("fingerprint")
    manifest["fingerprint"] = artifact_mod._fingerprint(manifest, arrays)
    np.savez(path, __artifact__=np.array(json.dumps(manifest)), **arrays)


def _set_index(record, arrays):
    arrays["indices"][0] = 10_000_000


def _set_indptr(record, arrays):
    arrays["indptr"][1] = arrays["indptr"][-1] + 1


def _set_shape(record, arrays):
    record["out_features"] += 1


def _set_bias(record, arrays):
    record["bias"] = record["indices"]  # int32, wrong length


class TestCraftedArtifacts:
    """Edited and re-signed artifacts must raise, never crash the process."""

    @pytest.mark.parametrize("edit", [_set_index, _set_indptr, _set_shape, _set_bias])
    def test_crafted_record_raises_artifact_error(self, tmp_path, edit):
        _, path = _mlp_artifact(tmp_path)
        _recraft(path, edit)
        src = str(pathlib.Path(__import__("repro").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", _LOAD_AND_PREDICT, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 3, (result.returncode, result.stdout, result.stderr)
        assert "artifact layer" in result.stdout

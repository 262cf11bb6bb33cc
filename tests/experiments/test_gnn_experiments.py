"""GNN link prediction through ``run_gnn`` (Tables III/IV): every method,
the ADMM baseline, RigL = DST-EE at c = 0, kill-and-resume and sweeps."""

import pathlib

import numpy as np
import pytest

from repro.data import ia_email_like, wiki_talk_like
from repro.experiments import GNN_METHODS, enumerate_cells, run_gnn, run_sweep
from repro.experiments.gnn import evaluate_link_prediction
from repro.train.callbacks import Callback


@pytest.fixture(scope="module")
def graph():
    return wiki_talk_like(n_nodes=120, seed=0)


def masks_equal(a, b):
    a, b = a.masked.masks_snapshot(), b.masked.masks_snapshot()
    return a.keys() == b.keys() and all(np.array_equal(a[name], b[name]) for name in a)


class TestDense:
    def test_learns(self, graph):
        result = run_gnn("dense", data=graph, epochs=6, seed=0)
        assert result.method == "dense"
        assert result.final_accuracy > 0.55
        assert result.actual_sparsity is None

    def test_final_accuracy_scores_the_trained_model(self, graph):
        result = run_gnn("dense", data=graph, epochs=5, seed=0, keep_model=True)
        assert result.final_accuracy == evaluate_link_prediction(result.model, graph)


class TestDSTEE:
    def test_respects_uniform_sparsity(self, graph):
        result = run_gnn("dst_ee", data=graph, sparsity=0.9, epochs=5, seed=0)
        assert result.actual_sparsity == pytest.approx(0.9, abs=0.02)

    def test_only_predictor_layers_sparsified(self, graph):
        result = run_gnn("dst_ee", data=graph, sparsity=0.9, epochs=5, keep_model=True)
        names = {target.name for target in result.masked.targets}
        assert names == {"predictor.fc1.weight", "predictor.fc2.weight"}
        # The encoder stays dense: no weight of it is masked to zero.
        encoder = result.model.encoder
        assert np.all(encoder.lin1.weight.data != 0.0)
        assert np.all(encoder.lin2.weight.data != 0.0)

    def test_beats_chance(self, graph):
        result = run_gnn("dst_ee", data=graph, sparsity=0.8, epochs=6, seed=0)
        assert result.final_accuracy > 0.55


class _Probe(Callback):
    """Keeps the trainer it is bound to and counts the steps it trains."""

    steps = 0

    def bind(self, trainer):
        self.trainer = trainer

    def on_step_end(self, step):
        self.steps += 1


class TestMethods:
    @pytest.mark.parametrize("method", GNN_METHODS)
    def test_every_gnn_method_runs(self, method):
        result = run_gnn(method, n_nodes=80, epochs=3, delta_t=2, seed=0)
        assert result.method == method
        assert 0.0 <= result.final_accuracy <= 1.0
        if method != "dense":
            assert result.actual_sparsity == pytest.approx(0.9, abs=0.02)

    def test_unknown_method_and_graph_rejected(self):
        with pytest.raises(ValueError, match="not GNN-capable"):
            run_gnn("snip")
        with pytest.raises(ValueError, match="unknown graph"):
            run_gnn("dst_ee", "cora")

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dst_ee_at_c0_grows_what_rigl_grows(self, seed):
        # Eq. 1 with c = 0 is RigL's |g| score: same seed, init, data order
        # and mask RNG must give the same masks after three ΔT rounds.
        data = wiki_talk_like(n_nodes=400, seed=seed)
        probe = _Probe()
        common = dict(data=data, sparsity=0.9, epochs=3, seed=seed, keep_model=True)
        dst_ee = run_gnn("dst_ee", c=0.0, callbacks=[probe], **common)
        assert len(probe.trainer.controller.history) == 3
        rigl = run_gnn("rigl", **common)
        assert masks_equal(dst_ee, rigl)
        assert dst_ee.final_accuracy == rigl.final_accuracy
        # The exploration bonus at the default c changes what grows.
        assert not masks_equal(run_gnn("dst_ee", **common), rigl)


class TestADMM:
    def test_pipeline_end_to_end(self, graph):
        result = run_gnn("admm", data=graph, sparsity=0.8, epochs=9, seed=0)
        assert result.method == "admm"
        assert result.epochs == 9
        assert result.actual_sparsity == pytest.approx(0.8, abs=0.02)
        assert result.final_accuracy > 0.5

    def test_final_model_is_actually_sparse(self, graph):
        result = run_gnn("admm", data=graph, sparsity=0.9, epochs=6, seed=1)
        assert result.actual_sparsity == pytest.approx(0.9, abs=0.02)

    def test_not_resumable(self, graph, tmp_path):
        with pytest.raises(ValueError, match="not resumable"):
            run_gnn("admm", data=graph, epochs=3, checkpoint_dir=tmp_path)


class TestResume:
    def test_kill_and_resume_mid_epoch_is_bitwise(self, graph, tmp_path):
        # 2 batches per epoch: a checkpoint every 3 steps lands mid-epoch.
        run = dict(method="dst_ee", data=graph, epochs=6, delta_t=2, seed=0, keep_model=True)
        reference = run_gnn(**run, checkpoint_dir=tmp_path, checkpoint_every_steps=3)
        mid_epoch = pathlib.Path(tmp_path) / "ckpt-0000000003.npz"
        assert mid_epoch.exists()
        probe = _Probe()
        resumed = run_gnn(**run, resume_from=mid_epoch, callbacks=[probe])
        assert probe.steps == 12 - 3
        assert resumed.final_accuracy == reference.final_accuracy
        assert resumed.exploration_rate == reference.exploration_rate
        assert masks_equal(resumed, reference)


class TestSweep:
    def test_unknown_method_is_a_failed_cell(self):
        cells = enumerate_cells(["dst_ee", "snip"], ["gnn"], ["wiki_talk"], [0.9], seeds=[0])

        def run_cell(cell, **kwargs):
            return run_gnn(
                cell.method, cell.dataset, sparsity=cell.sparsity, seed=cell.seed, **kwargs
            )

        report = run_sweep(cells, run_cell, n_proc=1, n_nodes=80, epochs=2)
        assert [outcome.ok for outcome in report.outcomes] == [True, False]
        assert "not GNN-capable" in report.failures[0].error

    def test_admm_grid_builds_through_enumerate_cells(self):
        cells = enumerate_cells(["dense", "admm"], ["gnn"], ["wiki_talk"], [0.9], seeds=[0])

        def run_cell(cell, **kwargs):
            return run_gnn(
                cell.method, cell.dataset, sparsity=cell.sparsity, seed=cell.seed, **kwargs
            )

        report = run_sweep(cells, run_cell, n_proc=1, n_nodes=80, epochs=3)
        assert not report.failures
        assert [outcome.result.method for outcome in report.outcomes] == ["dense", "admm"]


class TestDatasets:
    def test_ia_email_variant_runs(self):
        graph = ia_email_like(n_nodes=100, seed=1)
        result = run_gnn("dense", data=graph, epochs=3, seed=0)
        assert result.dataset == "ia-email-like"

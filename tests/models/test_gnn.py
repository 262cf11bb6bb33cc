"""GNN link-prediction model."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.data import wiki_talk_like
from repro.models import GNNLinkModel
from repro.models.gnn import BoundLinkModel


@pytest.fixture(scope="module")
def graph_data():
    return wiki_talk_like(n_nodes=80, seed=0)


class TestGNNLinkModel:
    def test_logit_shape(self, graph_data):
        model = GNNLinkModel(graph_data.n_features, seed=0)
        edges = graph_data.train_pos[:10]
        out = model(graph_data.adjacency, Tensor(graph_data.features), edges)
        assert out.shape == (10,)

    def test_bound_model_scores_edges_alone(self, graph_data):
        unbound = GNNLinkModel(graph_data.n_features, seed=0)
        bound = BoundLinkModel(graph_data.adjacency, graph_data.features, seed=0)
        edges = graph_data.train_pos[:10]
        expected = unbound(graph_data.adjacency, Tensor(graph_data.features), edges)
        np.testing.assert_array_equal(bound(Tensor(edges)).data, expected.data)
        names = [name for name, _ in bound.named_parameters()]
        assert names == [name for name, _ in unbound.named_parameters()]

    def test_sparse_targets_are_two_fc_layers(self, graph_data):
        model = GNNLinkModel(graph_data.n_features, seed=0)
        targets = model.sparse_target_modules()
        assert len(targets) == 2
        assert all(isinstance(t, nn.Linear) for t in targets)
        assert targets[0] is model.predictor.fc1
        assert targets[1] is model.predictor.fc2

    def test_gradients_reach_encoder_and_predictor(self, graph_data):
        model = GNNLinkModel(graph_data.n_features, seed=0)
        edges = graph_data.train_pos[:16]
        logits = model(graph_data.adjacency, Tensor(graph_data.features), edges)
        labels = np.ones(16, dtype=np.float32)
        nn.binary_cross_entropy_with_logits(logits, labels).backward()
        assert model.encoder.lin1.weight.grad is not None
        assert model.predictor.fc1.weight.grad is not None
        assert np.abs(model.encoder.lin1.weight.grad).sum() > 0

    def test_deterministic_init(self, graph_data):
        a = GNNLinkModel(graph_data.n_features, seed=3)
        b = GNNLinkModel(graph_data.n_features, seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_learns_on_tiny_graph(self, graph_data):
        from repro.experiments.gnn import evaluate_link_prediction, run_gnn

        model = BoundLinkModel(graph_data.adjacency, graph_data.features, seed=0)
        initial = evaluate_link_prediction(model, graph_data)
        final = run_gnn("dense", data=graph_data, epochs=8, seed=0).final_accuracy
        assert final >= initial
        assert final > 0.55  # clearly better than coin-flip

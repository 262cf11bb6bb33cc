"""GNN pipeline edge cases and protocol details."""

import numpy as np
import pytest

from repro.data import DataLoader, wiki_talk_like
from repro.data.graphs import degree_corrected_partition_graph
from repro.experiments.gnn import edge_dataset, evaluate_link_prediction, run_gnn
from repro.models.gnn import BoundLinkModel


@pytest.fixture(scope="module")
def graph():
    return wiki_talk_like(n_nodes=100, seed=3)


def edge_batches(graph, batch_size):
    """The training edge loader ``run_gnn`` builds, at another batch size."""
    train = edge_dataset(graph.train_pos, graph.train_neg)
    return DataLoader(train, batch_size, shuffle=True, rng=np.random.default_rng(0))


class TestEdgeBatches:
    def test_covers_all_training_edges(self, graph):
        seen = 0
        for edges, labels in edge_batches(graph, batch_size=64):
            assert edges.shape[1] == 2
            assert len(edges) == len(labels)
            seen += len(edges)
        assert seen == len(graph.train_pos) + len(graph.train_neg)

    def test_labels_match_membership(self, graph):
        positives = {tuple(e) for e in graph.train_pos}
        for edges, labels in edge_batches(graph, batch_size=32):
            for edge, label in zip(edges.data, labels):
                assert (tuple(edge) in positives) == bool(label)

    def test_shuffled_between_epochs(self, graph):
        loader = edge_batches(graph, batch_size=32)
        first = next(iter(loader))[0].data.copy()
        second = next(iter(loader))[0].data
        assert not np.array_equal(first, second)


class TestEvaluation:
    def test_eval_does_not_switch_mode_permanently(self, graph):
        model = BoundLinkModel(graph.adjacency, graph.features, seed=0)
        model.train()
        evaluate_link_prediction(model, graph)
        assert model.training

    def test_untrained_model_near_chance(self, graph):
        model = BoundLinkModel(graph.adjacency, graph.features, seed=0)
        accuracy = evaluate_link_prediction(model, graph)
        assert 0.2 <= accuracy <= 0.8  # untrained: no strong signal either way


class TestDSTEEProtocol:
    def test_uniform_distribution_on_predictor(self, graph):
        result = run_gnn("dst_ee", data=graph, sparsity=0.9, epochs=2, seed=0)
        # Uniform sparsity: the actual sparsity is exactly the target on the
        # two FC layers combined.
        assert result.actual_sparsity == pytest.approx(0.9, abs=0.02)


class TestGraphGenerator:
    def test_mixing_bounds_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            degree_corrected_partition_graph(50, 4, 8.0, 0.0, 2.0, rng)
        with pytest.raises(ValueError):
            degree_corrected_partition_graph(50, 0, 8.0, 0.5, 2.0, rng)

    def test_community_structure_increases_internal_edges(self):
        rng = np.random.default_rng(1)
        graph, communities = degree_corrected_partition_graph(
            200, 4, 10.0, 0.05, 2.0, rng
        )
        internal = sum(
            1 for u, v in graph.edges() if communities[u] == communities[v]
        )
        assert internal > graph.number_of_edges() * 0.5  # vs ~0.25 at random

    def test_mean_degree_approximate(self):
        rng = np.random.default_rng(2)
        graph, _ = degree_corrected_partition_graph(300, 5, 12.0, 0.1, 2.0, rng)
        mean_degree = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert mean_degree == pytest.approx(12.0, rel=0.5)

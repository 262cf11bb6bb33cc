"""Synthetic graph datasets for the GNN link-prediction experiments.

The paper evaluates on *wiki-talk* (a large, heavy-tailed communication
network) and *ia-email* (an email interaction network).  Neither is shipped
offline, so we synthesize graphs with the matching structural flavour:
**degree-corrected planted-partition graphs** — power-law degree propensities
(hubs, like talk pages and mailing lists) combined with community structure
(talk topics / organizational teams), which is the property that makes link
prediction on these networks learnable in the first place.

* ``wiki_talk_like`` — heavier degree tail, weaker communities;
* ``ia_email_like`` — stronger communities and clustering (email stays
  within teams), matching its higher link-prediction accuracy in the paper.

Node features combine structural statistics (log-degree, clustering) with a
noisy community signal and fixed random features, so a GCN encoder can
recover the latent structure.

The link-prediction protocol follows the standard setup: a fraction of edges
is held out as test positives, matched by an equal number of sampled
non-edges as test negatives; the remaining edges form the message-passing
graph and the training positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx
    import scipy.sparse as sp

__all__ = [
    "LinkPredictionData",
    "normalized_adjacency",
    "make_link_prediction_data",
    "wiki_talk_like",
    "ia_email_like",
]


@dataclass
class LinkPredictionData:
    """A link-prediction task.

    Attributes
    ----------
    adjacency:
        Symmetrically-normalized adjacency (with self-loops) of the *training*
        graph, used for message passing.
    features:
        Node feature matrix ``(n_nodes, n_features)`` (structural + random).
    train_pos, train_neg, test_pos, test_neg:
        Edge index arrays of shape ``(k, 2)``.
    name:
        Dataset identifier.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    train_pos: np.ndarray
    train_neg: np.ndarray
    test_pos: np.ndarray
    test_neg: np.ndarray
    name: str = "graph"

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def normalized_adjacency(graph: nx.Graph) -> sp.csr_matrix:
    """GCN-style normalization ``D^-1/2 (A + I) D^-1/2`` as float32 CSR."""
    import networkx as nx
    import scipy.sparse as sp

    adjacency = nx.to_scipy_sparse_array(graph, format="csr", dtype=np.float32)
    adjacency = adjacency + sp.eye(adjacency.shape[0], dtype=np.float32, format="csr")
    degrees = np.asarray(adjacency.sum(axis=1)).reshape(-1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    d_mat = sp.diags(inv_sqrt.astype(np.float32))
    return (d_mat @ adjacency @ d_mat).tocsr()


def degree_corrected_partition_graph(
    n_nodes: int,
    n_communities: int,
    mean_degree: float,
    mixing: float,
    power: float,
    rng: np.random.Generator,
) -> tuple[nx.Graph, np.ndarray]:
    """Degree-corrected planted-partition graph.

    Each node gets a community ``c_i`` and a Pareto-tailed degree propensity
    ``θ_i``; the probability of edge ``(i, j)`` is proportional to
    ``θ_i·θ_j`` boosted for same-community pairs.  ``mixing`` ∈ (0, 1] is
    the relative rate of between-community edges (lower ⇒ stronger
    communities); ``power`` controls the degree-tail heaviness.

    Returns the graph and the community assignment array.
    """
    import networkx as nx

    if n_communities < 1:
        raise ValueError(f"need >= 1 community, got {n_communities}")
    if not 0.0 < mixing <= 1.0:
        raise ValueError(f"mixing must be in (0, 1], got {mixing}")
    communities = rng.integers(0, n_communities, size=n_nodes)
    theta = rng.pareto(power, size=n_nodes) + 1.0
    theta /= theta.mean()
    # Pairwise edge probabilities (vectorized upper triangle).
    idx_u, idx_v = np.triu_indices(n_nodes, k=1)
    same = communities[idx_u] == communities[idx_v]
    affinity = np.where(same, 1.0, mixing)
    base = mean_degree / (n_nodes * np.mean(np.where(same, 1.0, mixing)))
    probs = np.clip(base * theta[idx_u] * theta[idx_v] * affinity, 0.0, 0.9)
    edges_mask = rng.random(len(idx_u)) < probs
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    graph.add_edges_from(zip(idx_u[edges_mask].tolist(), idx_v[edges_mask].tolist()))
    return graph, communities


def _structural_features(
    graph: nx.Graph,
    n_random: int,
    rng: np.random.Generator,
    communities: np.ndarray | None = None,
    community_noise: float = 0.5,
) -> np.ndarray:
    """Structural + (noisy) community + fixed random node features."""
    import networkx as nx

    n = graph.number_of_nodes()
    degrees = np.array([graph.degree(v) for v in range(n)], dtype=np.float32)
    log_degree = np.log1p(degrees)
    clustering = np.array([v for _, v in sorted(nx.clustering(graph).items())], dtype=np.float32)
    columns = [log_degree, clustering]
    if communities is not None:
        n_comm = int(communities.max()) + 1
        onehot = np.eye(n_comm, dtype=np.float32)[communities]
        onehot += community_noise * rng.standard_normal(onehot.shape).astype(np.float32)
        columns.extend(onehot.T)
    random_part = rng.standard_normal((n, n_random)).astype(np.float32)
    features = np.column_stack(columns + [random_part])
    features -= features.mean(axis=0, keepdims=True)
    features /= features.std(axis=0, keepdims=True) + 1e-8
    return features.astype(np.float32)


def _sample_negative_edges(graph: nx.Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` distinct non-edges uniformly (rejection sampling)."""
    n = graph.number_of_nodes()
    negatives: set[tuple[int, int]] = set()
    max_attempts = 100 * count
    attempts = 0
    while len(negatives) < count and attempts < max_attempts:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        attempts += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in negatives or graph.has_edge(*key):
            continue
        negatives.add(key)
    if len(negatives) < count:
        raise RuntimeError(f"could not sample {count} negative edges after {max_attempts} attempts")
    return np.array(sorted(negatives), dtype=np.int64)


def make_link_prediction_data(
    graph: nx.Graph,
    test_fraction: float = 0.2,
    n_random_features: int = 14,
    seed: int = 0,
    name: str = "graph",
    communities: np.ndarray | None = None,
    community_noise: float = 0.5,
) -> LinkPredictionData:
    """Split a graph into a link-prediction task.

    Test positives are removed from the message-passing graph, so the model
    never sees them during training.  Training/test negatives are disjoint
    non-edges of the original graph.
    """
    import networkx as nx

    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    graph = nx.convert_node_labels_to_integers(graph)
    edges = np.array(sorted((min(u, v), max(u, v)) for u, v in graph.edges()), dtype=np.int64)
    n_edges = len(edges)
    n_test = max(1, int(test_fraction * n_edges))
    order = rng.permutation(n_edges)
    test_pos = edges[order[:n_test]]
    train_pos = edges[order[n_test:]]

    train_graph = nx.Graph()
    train_graph.add_nodes_from(range(graph.number_of_nodes()))
    train_graph.add_edges_from(train_pos.tolist())

    negatives = _sample_negative_edges(graph, len(train_pos) + n_test, rng)
    neg_order = rng.permutation(len(negatives))
    test_neg = negatives[neg_order[:n_test]]
    train_neg = negatives[neg_order[n_test : n_test + len(train_pos)]]

    features = _structural_features(
        graph,
        n_random_features,
        rng,
        communities=communities,
        community_noise=community_noise,
    )
    return LinkPredictionData(
        adjacency=normalized_adjacency(train_graph),
        features=features,
        train_pos=train_pos,
        train_neg=train_neg,
        test_pos=test_pos,
        test_neg=test_neg,
        name=name,
    )


def wiki_talk_like(
    n_nodes: int = 600,
    n_communities: int = 5,
    mean_degree: float = 12.0,
    mixing: float = 0.06,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> LinkPredictionData:
    """Synthetic stand-in for the wiki-talk communication network.

    Heavy degree tail (hub editors / popular talk pages) with moderate topic
    communities.
    """
    rng = np.random.default_rng(seed)
    graph, communities = degree_corrected_partition_graph(
        n_nodes, n_communities, mean_degree, mixing, power=1.8, rng=rng
    )
    return make_link_prediction_data(
        graph,
        test_fraction=test_fraction,
        seed=seed,
        name="wiki-talk-like",
        communities=communities,
        community_noise=0.3,
    )


def ia_email_like(
    n_nodes: int = 500,
    n_communities: int = 10,
    mean_degree: float = 14.0,
    mixing: float = 0.03,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> LinkPredictionData:
    """Synthetic stand-in for the ia-email interaction network.

    Email networks have stronger community structure (teams/organizations),
    hence the lower ``mixing`` — and, as in the paper, higher absolute
    link-prediction accuracy than the wiki-talk stand-in.
    """
    rng = np.random.default_rng(seed + 1000)
    graph, communities = degree_corrected_partition_graph(
        n_nodes, n_communities, mean_degree, mixing, power=2.5, rng=rng
    )
    return make_link_prediction_data(
        graph,
        test_fraction=test_fraction,
        seed=seed,
        name="ia-email-like",
        communities=communities,
        community_noise=0.2,
    )

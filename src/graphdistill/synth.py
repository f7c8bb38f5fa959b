"""Deterministic synthetic graph generators.

Used by the demos and tests, and as a stand-in benchmark at the scale of
the small binary TU collections whenever the real raw files are not on
disk. Class identity is structural (community layout), with node types
only weakly informative, so structure-aware models hold a real edge over
feature-only ones.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Graph, degree_onehot_features


def _onehot(types: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((types.size, dim))
    out[np.arange(types.size), types] = 1.0
    return out


def _er_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return list(zip(iu[mask].tolist(), ju[mask].tolist()))


def _two_block_edges(n: int, p_in: float, p_out: float,
                     rng: np.random.Generator) -> list[tuple[int, int]]:
    half = n // 2
    iu, ju = np.triu_indices(n, k=1)
    same = (iu < half) == (ju < half)
    p = np.where(same, p_in, p_out)
    mask = rng.random(iu.size) < p
    return list(zip(iu[mask].tolist(), ju[mask].tolist()))


def two_class_structural(num_graphs: int = 405, seed: int = 0, num_types: int = 8,
                         min_nodes: int = 24, max_nodes: int = 45,
                         name: str = "synthetic-binary") -> Dataset:
    """Binary graph classification with community structure as the signal.

    Class 0 graphs are near-uniform random graphs; class 1 graphs carry two
    dense blocks with a sparse bridge, at matched expected degree. Node
    types are drawn from slightly class-tilted distributions, so features
    alone separate the classes only weakly.
    """
    rng = np.random.default_rng(seed)
    type_p0 = np.linspace(1.0, 2.0, num_types)
    type_p0 /= type_p0.sum()
    type_p1 = type_p0[::-1].copy()
    mix0, mix1 = 0.75 * type_p0 + 0.25 * type_p1, 0.25 * type_p0 + 0.75 * type_p1

    graphs = []
    for _ in range(num_graphs):
        label = int(rng.random() < 0.5)
        n = int(rng.integers(min_nodes, max_nodes + 1))
        target_degree = 4.0
        if label == 0:
            edges = _er_edges(n, target_degree / (n - 1), rng)
        else:
            # Split the same expected degree 80/20 between intra and inter block.
            half = n // 2
            pairs_in = half * (half - 1) / 2 + (n - half) * (n - half - 1) / 2
            pairs_out = half * (n - half)
            p_in = 0.8 * target_degree * n / 2 / pairs_in
            p_out = 0.2 * target_degree * n / 2 / pairs_out
            edges = _two_block_edges(n, min(p_in, 1.0), min(p_out, 1.0), rng)
        types = rng.choice(num_types, size=n, p=mix0 if label == 0 else mix1)
        graphs.append(Graph.from_edges(n, edges, _onehot(types, num_types), label))
    return Dataset(graphs=graphs, num_classes=2, feature_dim=num_types, name=name)


def preferential_attachment_edges(n: int, rng: np.random.Generator,
                                  extra_edges: int = 0) -> list[tuple[int, int]]:
    """Sparse hub-heavy graph: a preferential-attachment tree plus extras."""
    edges = []
    degree = np.zeros(n)
    for v in range(1, n):
        weights = degree[:v] + 1.0
        u = int(rng.choice(v, p=weights / weights.sum()))
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    for _ in range(extra_edges):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v)))
    return edges


def sparse_social_dataset(num_graphs: int = 20, num_nodes: int = 400, seed: int = 0,
                          name: str = "synthetic-social") -> Dataset:
    """Large sparse graphs with degree one-hot features (discussion-thread style)."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(num_graphs):
        n = int(rng.integers(int(num_nodes * 0.9), int(num_nodes * 1.1) + 1))
        edges = preferential_attachment_edges(n, rng, extra_edges=n // 5)
        label = int(rng.random() < 0.5)
        graphs.append(Graph.from_edges(n, edges, np.ones((n, 1)), label))
    base = Dataset(graphs=graphs, num_classes=2, feature_dim=1, name=name)
    return degree_onehot_features(base)

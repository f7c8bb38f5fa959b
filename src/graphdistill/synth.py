"""Deterministic synthetic graph generators.

Used by the demos and tests, and as a stand-in benchmark at the scale of
the small binary TU collections whenever the real raw files are not on
disk. Class identity is structural (community layout), with node types
only weakly informative, so structure-aware models hold a real edge over
feature-only ones.

Every generator is pinned by its seed: the benchmark inputs and the test
fixtures are built from these draws, so a change here must consume the
same generator calls in the same order and give the same graphs. The
generators hand edges to ``Graph.from_edges`` as (m, 2) int64 arrays, and
``preferential_attachment_edges`` finds numpy's weighted draws from integer
prefix sums rather than one ``Generator.choice`` call per node.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .data import Dataset, Graph, degree_onehot_features
from .errors import ConfigError


def _onehot(types: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((types.size, dim))
    out[np.arange(types.size), types] = 1.0
    return out


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per size and read-only."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def _er_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    iu, ju = _upper_pairs(n)
    mask = rng.random(iu.size) < p
    return np.stack([iu[mask], ju[mask]], axis=1)


def _two_block_edges(n: int, p_in: float, p_out: float,
                     rng: np.random.Generator) -> np.ndarray:
    half = n // 2
    iu, ju = _upper_pairs(n)
    same = (iu < half) == (ju < half)
    p = np.where(same, p_in, p_out)
    mask = rng.random(iu.size) < p
    return np.stack([iu[mask], ju[mask]], axis=1)


def two_class_structural(num_graphs: int = 405, seed: int = 0, num_types: int = 8,
                         min_nodes: int = 24, max_nodes: int = 45,
                         name: str = "synthetic-binary") -> Dataset:
    """Binary graph classification with community structure as the signal.

    Class 0 graphs are near-uniform random graphs; class 1 graphs carry two
    dense blocks with a sparse bridge, at matched expected degree. Node
    types are drawn from slightly class-tilted distributions, so features
    alone separate the classes only weakly. ``min_nodes`` below 3 (a block
    without a pair) or ``max_nodes`` below ``min_nodes`` is a ``ConfigError``.
    """
    if min_nodes < 3 or max_nodes < min_nodes:
        raise ConfigError(f"need 3 <= min_nodes <= max_nodes, got min_nodes={min_nodes}, "
                          f"max_nodes={max_nodes}")
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


# A step whose double u lies within ``_MARGIN_ULPS * (v + 1)`` units of 2**-53
# of a prefix boundary W_j / S is settled by numpy's float cdf. Derivation:
# ``choice`` rounds each p_j = w_j / S once (2**-53 relative), sums them one
# after another (at most v more roundings of a partial sum <= 1 + 2**-52)
# and divides by the last sum, which is within (v + 1) 2**-53 of 1, with one
# rounding more. So |cdf_k - W_k / S| <= (2 v + 3) 2**-53 to first order,
# and 16 (v + 1) units leave a factor of six. The test suite raises this to
# send every step down the float path.
_MARGIN_ULPS = 16


def preferential_attachment_edges(n: int, rng: np.random.Generator,
                                  extra_edges: int = 0) -> np.ndarray:
    """Sparse hub-heavy graph: a preferential-attachment tree plus extras.

    Node v (1 <= v < n) attaches to an earlier node u drawn with weight
    ``degree[u] + 1`` (Barabasi & Albert, 1999); then ``extra_edges`` pairs
    of distinct nodes are added, each from one
    ``rng.choice(n, size=2, replace=False)``. Returns the (m, 2) int64 edge
    array, tree edges (u, v) first, in draw order.

    The tree draws are exactly those of one ``rng.choice(v, p=w / w.sum())``
    per node, with no such call. ``choice`` takes one double u per call and
    returns the first k whose float cdf exceeds u, so one
    ``rng.random(n - 1)`` yields the same doubles from the same stream
    positions, and leaves the generator in the same state. The weights are
    integers, so the exact cdf is W_k / S with integer prefix sums W_k, kept
    in a Fenwick tree (Fenwick, 1994): with u = r 2**-53, the exact answer
    is the first k with W_k > (r S) >> 53, found by one descent of the tree.
    The float cdf differs from W_k / S by less than (2 v + 3) 2**-53 (see
    ``_MARGIN_ULPS``), so the two agree unless u lies that close to a
    boundary. Only then, for a share of steps below 32 v**2 2**-53 (1.5e-8 at
    v = 2000), is the step's float cdf computed as ``choice`` computes it.
    """
    if n <= 1:
        edges = np.zeros((0, 2), dtype=np.int64)
    else:
        edges = np.empty((n - 1, 2), dtype=np.int64)
        edges[:, 0] = _attachment_targets(n, rng)
        edges[:, 1] = np.arange(1, n)
    if extra_edges:
        extra = [rng.choice(n, size=2, replace=False) for _ in range(extra_edges)]
        edges = np.concatenate([edges, np.array(extra, dtype=np.int64)])
    return edges


def _attachment_targets(n: int, rng: np.random.Generator) -> list[int]:
    """The node each of 1..n-1 attaches to, as ``preferential_attachment_edges`` draws it."""
    draws = (rng.random(n - 1) * 2.0**53).astype(np.int64).tolist()
    weight = [1] * n            # degree + 1 of every node placed so far
    tree = [0] * (n + 1)        # Fenwick tree over weight[0:v], 1-indexed
    top = 1 << (n.bit_length() - 1)
    targets = []
    total = 0
    for v, r in enumerate(draws, start=1):
        # Node v - 1 enters with its weight, and S grows to 3 v - 2.
        i, w = v, weight[v - 1]
        while i <= n:
            tree[i] += w
            i += i & -i
        total += w
        # Descend past every prefix <= (r S) >> 53: k of them, so node k is the draw.
        t = r * total
        rest, k, step = t >> 53, 0, top
        while step:
            j = k + step
            if j <= n and tree[j] <= rest:
                k = j
                rest -= tree[j]
            step >>= 1
        low = (t >> 53) - rest                      # W_{k-1}
        margin = _MARGIN_ULPS * (v + 1) * total
        if t - (low << 53) < margin or ((low + weight[k]) << 53) - t < margin:
            k = _float_choice(weight[:v], r * 2.0**-53)
        targets.append(k)
        # The new edge (k, v): one more degree at both ends.
        i = k + 1
        while i <= n:
            tree[i] += 1
            i += i & -i
        weight[k] += 1
        weight[v] += 1
        total += 1
    return targets


def _float_choice(weights: list[int], u: float) -> int:
    """``Generator.choice(len(weights), p=w / w.sum())`` for the double ``u`` it draws."""
    w = np.array(weights, dtype=np.float64)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


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

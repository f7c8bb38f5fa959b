"""Per-graph structural preprocessing, run once before any training.

Covers community detection (Louvain), Laplacian positional encodings,
random-walk pool generation and 1-hop degree-normalized feature
aggregation, plus a persisted per-dataset cache of all four.

Neighbourhood operators are symmetric ``csr.CsrOperator`` matrices (see
``csr`` for the O(1) checks that replace scipy's constructor) built by
``csr_operator`` straight from a CSR adjacency: the plain adjacency
(GA-MLP aggregation here, GIN message passing in ``models``), the GCN
propagation matrix (``models``) and the normalized Laplacian of graphs
above ``DENSE_LAPE_MAX_NODES`` nodes (as a scipy matrix, for shift-invert
``eigsh``); smaller graphs fill a dense Laplacian for ``eigh``.

Louvain (``louvain_cluster``) clusters a whole dataset in one call. One
level driver (``_louvain``) runs a disjoint union of graphs: each level
moves nodes in every graph still improving, then collapses all that
improved in one numpy pass. Two move kernels of one signature, chosen by
graph size, make the moves: ``_lockstep_moves`` steps through the many
small graphs of a dataset together, one node of each per numpy step, and
``_sequential_moves`` runs the greedy scan ``_local_moves`` on one graph
at a time for the rest. Both give byte-identical partitions and
modularities (see ``louvain_cluster``).

``check_struct_caches`` owns the fit of caches to a dataset: every consumer of
caches calls it, and a misfit is an ``IntegrityError``.

The cache sidecar (``save_struct_caches``, format ``structcache/3``) is
one uncompressed ``.npz`` written by ``np.savez``: deflate shrank the float
members little for most of the save time. The loader reads stored and
deflated members alike, so sidecars written with deflated members (as by
``np.savez_compressed``) still load.

The sidecar holds a JSON ``meta`` string (format, dataset, seed, num_graphs,
walk_length) and one packed array per field, each cut into graphs by int64
offsets that start at 0 and never decrease:

- ``node_off`` [G+1] slices ``cluster`` [N] int64, ``lape`` [N, k_pe] and
  ``agg`` [N, D + k_pe] float64, where N is the total node count;
- ``modularity`` [G] float64 and ``wseed`` [G] int64, one per graph;
- ``level_off`` [G+1] slices ``levels`` float64 (per-level modularity);
- ``pool_off`` [G+1] slices the rows of each graph's walk pool out of
  ``walks`` [W, walk_length + 1] int64, the pools' ``WalkPool.walks``
  matrices stacked.

The loader also checks that every cluster and walk id lies in [0, n) of
its own graph, that -1 appears only as the tail of a singleton walk, and
that a sidecar holding walks has a ``walk_length`` of at least 1.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.sparse.linalg import eigsh

from .csr import CsrOperator
from .data import Dataset, Graph
from .errors import ContractError, FormatError, IntegrityError

STRUCT_CACHE_FORMAT = "structcache/3"

# Largest graph whose positional encoding uses dense ``eigh``. Dense and
# shift-invert times cross near 200 nodes (sparse preferential-attachment
# graphs, one BLAS thread, 2-core x86_64 VM: 4.9 vs 4.7 ms at 192 nodes,
# 9.2 vs 4.8 ms at 256), and graphs up to here keep their dense encodings.
DENSE_LAPE_MAX_NODES = 200
# Louvain in lockstep pays about 65 us per step however few graphs it
# visits, and a level takes as many steps as its largest graph's sweeps;
# one graph at a time costs about 2.5 us per node visit. Against one graph
# at a time (2-core x86_64 VM, one BLAS thread), two_class_structural sets
# (24-45 nodes) of 32, 48, 64, 96, 405 and 1000 graphs ran x0.74-0.79,
# x1.01, x1.20, x1.52-1.59, x2.4-2.8 and x2.6-3.2; 100 sparse social graphs
# of 60 to 200 nodes x1.2-2.0, and 20 of 400 nodes x0.25. Three graphs of
# 200 nodes next to 100 small ones made that batch x0.37 of splitting them
# off. So ``louvain_cluster`` runs in lockstep the graphs up to the size
# cap that maximises (their total nodes) - LOCKSTEP_COST_NODES * cap, when
# that is positive. The crossover at 48 graphs of 34.5 nodes on average
# and 45 at most puts it near 1656 / 45 = 37.
LOCKSTEP_COST_NODES = 36
# The tie-break is exact up to this many stored edge entries (see
# ``_lockstep_moves``).
LOCKSTEP_MAX_M2 = 2000
# Shift just below the spectrum [0, 2] of the normalized Laplacian, so that
# L - sigma*I stays nonsingular and the eigenvalues nearest it are the smallest.
_EIGSH_SIGMA = -1e-3


@dataclass
class ClusterAssignment:
    """Partition of a graph's nodes into contiguous cluster indices."""

    cluster_of: np.ndarray
    num_clusters: int
    modularity: float
    level_modularity: list[float]


@dataclass
class WalkPool:
    """Precomputed random walks as one int64 matrix [num_walks, walk_length + 1].

    Each row is a start node and ``walk_length`` steps, or, for a start
    without neighbours, that node followed by ``-1``s (a singleton walk).
    """

    walks: np.ndarray
    walk_length: int
    seed: int


@dataclass
class StructCache:
    """All derived per-graph structure used by students and losses.

    ``lape`` holds the positional-encoding columns, ``agg_features`` the
    degree-normalized neighbor aggregation of concat(X, lape); slicing its
    first feature_dim columns recovers the aggregation of X alone.
    """

    clusters: ClusterAssignment
    lape: np.ndarray
    agg_features: np.ndarray
    walk_pool: WalkPool


def check_struct_caches(graphs: list[Graph], caches: list[StructCache]) -> None:
    """The one check that ``caches`` fit ``graphs``: one cache per graph, and one
    cluster id, one ``lape`` row and one ``agg_features`` row per node. A mismatch
    is an ``IntegrityError`` naming the counts, or the first bad graph and field."""
    if len(caches) != len(graphs):
        raise IntegrityError(f"{len(caches)} struct caches for {len(graphs)} graphs")
    for i, (g, c) in enumerate(zip(graphs, caches)):
        for name, rows in (("clusters.cluster_of", c.clusters.cluster_of), ("lape", c.lape),
                           ("agg_features", c.agg_features)):
            if len(rows) != g.num_nodes:
                raise IntegrityError(f"graph {i}: struct cache field {name!r} has {len(rows)} "
                                     f"rows, the graph has {g.num_nodes} nodes")


def _modularities(off: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                  cluster: np.ndarray, widths) -> list[float]:
    """Newman modularity of every graph of a disjoint union, in one pass.

    ``off`` [G+1] cuts the union's nodes into graphs; ``cluster`` holds
    each node's id within its own graph, below that graph's ``widths``
    entry. A graph without edges scores 0.0. Each graph's community term is
    one ``np.sum`` over its own ``widths`` entries, and every other sum
    counts integers, so a graph scores the same alone or in any union.
    """
    sizes = off[1:] - off[:-1]
    deg = indptr[1:] - indptr[:-1]
    edges = indptr[off[1:]] - indptr[off[:-1]]
    label_off = _offsets(widths)
    label = cluster + np.repeat(label_off[:-1], sizes)
    same = np.repeat(label, deg) == label[indices]
    internal = np.bincount(np.repeat(np.arange(sizes.size), edges), weights=same,
                           minlength=sizes.size)
    tot = np.bincount(label, weights=deg.astype(np.float64), minlength=int(label_off[-1]))
    m2 = edges.astype(np.float64)
    q = (tot / np.repeat(np.maximum(m2, 1.0), widths)) ** 2  # edgeless graphs score 0.0
    return [i / m - float(np.sum(q[lo:hi])) if m else 0.0
            for i, m, lo, hi in zip(internal.tolist(), m2.tolist(),
                                    label_off[:-1].tolist(), label_off[1:].tolist())]


def _local_moves(adj: list[dict[int, float]], strength: list[float], m2: float,
                 rng: np.random.Generator) -> tuple[list[int], bool]:
    """One Louvain phase: greedy single-node moves until no move improves."""
    n = len(adj)
    comm = list(range(n))
    tot = strength[:]
    moved_any = False
    while True:
        moved = 0
        for i in rng.permutation(n).tolist():
            ci = comm[i]
            k_i = strength[i]
            w_to: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_to[cj] = w_to.get(cj, 0.0) + w
            tot[ci] -= k_i
            # Scaled gain of joining community c: w(i,c) - k_i * tot_c / m2.
            best_c = ci
            best_gain = w_to.get(ci, 0.0) - k_i * tot[ci] / m2
            for c in sorted(w_to):
                if c == ci:
                    continue
                gain = w_to[c] - k_i * tot[c] / m2
                if gain > best_gain + 1e-12:
                    best_gain, best_c = gain, c
            tot[best_c] += k_i
            if best_c != ci:
                comm[i] = best_c
                moved += 1
        if moved == 0:
            break
        moved_any = True
    return comm, moved_any


def _first_occurrence(labels: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous ids, by first occurrence, in every block ``off`` cuts ``labels`` into.

    One pass; blocks share no label. Returns the ids numbered on from block
    to block (block b's ids start at the number of ids in blocks before it)
    and the number of ids in each block.
    """
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    counts = np.bincount(np.searchsorted(off, first, side="right") - 1,
                         minlength=off.size - 1)
    return rank[inv], counts


def _lockstep_moves(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                    strength: np.ndarray, off: np.ndarray, m2: np.ndarray,
                    rngs: list) -> tuple[np.ndarray, np.ndarray]:
    """``_local_moves`` of every graph of a weighted disjoint union at once.

    Each step visits the next node of every graph still sweeping and makes
    all their moves together; graphs never share a community, so the moves
    touch disjoint entries. Returns each node's community (a node of its
    own block) and which graphs moved any node.
    """
    # A move is the closed form of the tie scan in ``_local_moves``: stay
    # unless the best candidate beats ``ci`` by more than 1e-12, else join
    # the lowest id within 1e-12 of the best. It gives the scan's answer
    # while m2 <= LOCKSTEP_MAX_M2. Weights are integers, so w, k and tot are
    # exact, and gains w - k*tot/m2 that differ mathematically differ by at
    # least 1/m2. Computed as ``w - (k * tot) / m2``, a gain is off by at
    # most u*(k*tot/m2 + |gain|) (u = 2**-53). For two equal gains, with
    # the rounding of ``gain + 1e-12``, that adds up to at most 1.5*u*m2
    # (k*tot <= m2**2/4, and two communities share at most k of a node's
    # weight): 3.4e-13 < 1e-12 at m2 = 2000.
    n, num = strength.size, off.size - 1
    deg = indptr[1:] - indptr[:-1]
    comm = np.arange(n)
    tot = strength.copy()
    acc = np.zeros(n)  # w(i, c) of the visited nodes, zero between steps
    perm = np.empty(n, dtype=np.int64)
    bounds = list(zip(off[:-1].tolist(), off[1:].tolist()))
    for (lo, hi), rng in zip(bounds, rngs):
        perm[lo:hi] = lo + rng.permutation(hi - lo)
    act = np.arange(num)
    cur, end, m2a = off[:-1].copy(), off[1:].copy(), m2.copy()
    sweep_moved = np.zeros(num, dtype=bool)
    improved = np.zeros(num, dtype=bool)
    while act.size:
        nodes = perm[cur]
        d = deg[nodes]
        stop = np.cumsum(d)
        start = stop - d
        total = int(stop[-1])
        slot = np.arange(total) + np.repeat(indptr[nodes] - start, d)
        cj = comm[indices[slot]]
        np.add.at(acc, cj, weights[slot])
        ci = comm[nodes]
        w_own = acc[ci]
        own = np.repeat(np.arange(act.size), d)
        k = strength[nodes]
        tot[ci] -= k
        g_own = w_own - (k * tot[ci]) / m2a
        gain = acc[cj] - (k[own] * tot[cj]) / m2a[own]
        acc[cj] = 0.0
        gain[cj == ci[own]] = -np.inf
        best = np.full(act.size, -np.inf)
        np.maximum.at(best, own, gain)
        target = np.full(act.size, n)
        np.minimum.at(target, own, np.where(gain >= best[own] - 1e-12, cj, n))
        move = best > g_own + 1e-12
        new = np.where(move, target, ci)
        tot[new] += k
        comm[nodes] = new
        sweep_moved[act] |= move
        cur += 1
        fin = cur == end
        if not fin.any():
            continue
        keep = ~fin
        for j in np.flatnonzero(fin).tolist():
            g = int(act[j])
            if sweep_moved[g]:  # another sweep, in a fresh order
                lo, hi = bounds[g]
                perm[lo:hi] = lo + rngs[g].permutation(hi - lo)
                cur[j] = lo
                keep[j] = True
                sweep_moved[g] = False
                improved[g] = True
        act, cur, end, m2a = act[keep], cur[keep], end[keep], m2a[keep]
    return comm, improved


def _sequential_moves(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                      strength: np.ndarray, off: np.ndarray, m2: np.ndarray,
                      rngs: list) -> tuple[np.ndarray, np.ndarray]:
    """``_local_moves`` of each graph of a weighted disjoint union in turn.

    Arguments and result as for ``_lockstep_moves``; each graph's rows are
    read from its own CSR slice, renumbered from 0.
    """
    comm = np.empty(strength.size, dtype=np.int64)
    improved = np.zeros(off.size - 1, dtype=bool)
    local = indices - np.repeat(off[:-1], indptr[off[1:]] - indptr[off[:-1]])
    ptr, nbrs, w, k = indptr.tolist(), local.tolist(), weights.tolist(), strength.tolist()
    bounds = zip(off[:-1].tolist(), off[1:].tolist())
    for g, ((lo, hi), m, rng) in enumerate(zip(bounds, m2.tolist(), rngs)):
        adj = [dict(zip(nbrs[ptr[i]:ptr[i + 1]], w[ptr[i]:ptr[i + 1]])) for i in range(lo, hi)]
        moved, improved[g] = _local_moves(adj, k[lo:hi], m, rng)
        comm[lo:hi] = np.add(moved, lo)
    return comm, improved


def _louvain(graphs: list[Graph], seeds: list[int], moves) -> list[ClusterAssignment]:
    """Louvain on every graph at once, ``moves`` making each level's node moves.

    ``moves`` is ``_lockstep_moves`` or ``_sequential_moves``; every graph
    needs an edge. Each level runs it on the disjoint union of the graphs
    still improving, then aggregates all of them in one pass. The final
    partitions are scored in one pass too (``_modularities``).
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    off0, indptr0, indices0 = disjoint_union(graphs)
    indptr, indices = indptr0, indices0
    m2 = np.array([g.indices.size for g in graphs], dtype=np.float64)
    weights = np.ones(indices.size)
    strength = (indptr[1:] - indptr[:-1]).astype(np.float64)
    self_w = np.zeros(strength.size)
    off = off0
    live = np.arange(len(graphs))      # graphs still improving, in order
    orig = np.arange(strength.size)    # original nodes of the live graphs
    top = orig.copy()                  # ... and the level node holding each
    top_off = off0
    cluster = np.empty(strength.size, dtype=np.int64)
    levels: list[list[float]] = [[] for _ in graphs]
    while live.size:
        comm, improved = moves(indptr, indices, weights, strength, off, m2[live],
                               [rngs[g] for g in live.tolist()])
        sizes0 = top_off[1:] - top_off[:-1]
        kept0 = np.repeat(improved, sizes0)
        if not kept0.all():  # graphs that moved nothing end on their level's nodes
            done_sizes = sizes0[~improved]
            ids, counts = _first_occurrence(top[~kept0], _offsets(done_sizes))
            cluster[orig[~kept0]] = ids - np.repeat(_offsets(counts)[:-1], done_sizes)
        if not improved.any():
            break
        sizes = off[1:] - off[:-1]
        kept = np.repeat(improved, sizes)
        ids, counts = _first_occurrence(comm[kept], _offsets(sizes[improved]))
        num_comms = int(counts.sum())
        new_id = np.zeros(strength.size, dtype=np.int64)
        new_id[kept] = ids
        # The collapsed graphs: internal weight becomes self weight, parallel
        # edges merge. Weights are integers, so every sum is exact.
        src = np.repeat(np.arange(strength.size), indptr[1:] - indptr[:-1])
        on = kept[src]
        s, t, w = new_id[src[on]], new_id[indices[on]], weights[on]
        inside = s == t
        self_w = (np.bincount(ids, weights=self_w[kept], minlength=num_comms)
                  + np.bincount(s[inside], weights=w[inside], minlength=num_comms))
        strength = np.bincount(ids, weights=strength[kept], minlength=num_comms)
        key, pos = np.unique(s[~inside] * num_comms + t[~inside], return_inverse=True)
        weights = np.bincount(pos, weights=w[~inside], minlength=key.size)
        indices = key % num_comms
        indptr = _offsets(np.bincount(key // num_comms, minlength=num_comms))
        live = live[improved]
        off = _offsets(counts)
        m2_node = np.repeat(m2[live], counts)
        q = self_w / m2_node - (strength / m2_node) ** 2
        for g, lo, hi in zip(live.tolist(), off[:-1].tolist(), off[1:].tolist()):
            levels[g].append(float(np.sum(q[lo:hi])))
        top, orig = new_id[top[kept0]], orig[kept0]
        top_off = _offsets(sizes0[improved])
    widths = np.maximum.reduceat(cluster, off0[:-1]) + 1
    qs = _modularities(off0, indptr0, indices0, cluster, widths)
    return [ClusterAssignment(cluster_of=cluster[lo:hi], num_clusters=w, modularity=q,
                              level_modularity=level_q)
            for lo, hi, w, q, level_q in zip(off0[:-1].tolist(), off0[1:].tolist(),
                                             widths.tolist(), qs, levels)]


def louvain_cluster(graphs: list[Graph], seeds: list[int]) -> list[ClusterAssignment]:
    """Greedy modularity-maximizing clustering (Louvain) of every graph.

    Deterministic for a given seed: the node visitation order of every
    local-move sweep is drawn from the graph's own seeded generator
    (``seeds[i]`` for ``graphs[i]``). Nodes without edges always end up in
    singleton clusters.

    A graph without edges is all singletons, scores 0.0, has no levels and
    draws nothing from its generator. The others run through one level
    driver (``_louvain``) with one of two move kernels. Graphs with at most
    ``LOCKSTEP_MAX_M2`` stored edge entries and at most ``cap`` nodes run
    in lockstep (``_lockstep_moves``): one numpy step visits the next node
    of every graph still sweeping. ``cap`` is the size that maximises the
    nodes taken over minus ``LOCKSTEP_COST_NODES * cap`` (the steps the
    largest graph's sweeps take, in node visits); with no positive maximum
    nothing runs in lockstep. The rest run one node visit at a time
    (``_sequential_moves``). A graph's result does not depend on the
    kernel or on the other graphs, byte for byte: each graph draws its
    permutation from its own generator at the start of every sweep;
    integer weights make every ``w`` and ``tot`` sum exact in any order;
    gains use the same expression; each level's modularity is one
    ``np.sum`` over the graph's own communities; communities are relabelled
    by first occurrence; and the 1e-12 tie scan has an exact closed form
    while m2 <= ``LOCKSTEP_MAX_M2`` (see ``_lockstep_moves``).
    """
    if len(graphs) != len(seeds):
        raise ContractError(f"louvain_cluster got {len(graphs)} graphs and {len(seeds)} seeds")
    for i, g in enumerate(graphs):
        if g.num_nodes < 1:
            raise ContractError(f"louvain_cluster needs at least one node, graph {i} has none")
    fits = sorted((g.num_nodes, i) for i, g in enumerate(graphs)
                  if 0 < g.indices.size <= LOCKSTEP_MAX_M2)
    sizes = np.array([n for n, _ in fits], dtype=np.int64)
    saving = np.cumsum(sizes) - LOCKSTEP_COST_NODES * sizes  # per size cap
    cap = int(np.argmax(saving)) + 1 if saving.size and saving.max() > 0 else 0
    small = sorted(i for _, i in fits[:cap])
    rest = sorted({i for i, g in enumerate(graphs) if g.indices.size} - set(small))
    out: list[ClusterAssignment | None] = [
        None if g.indices.size else ClusterAssignment(np.arange(g.num_nodes), g.num_nodes, 0.0, [])
        for g in graphs]
    for ids, moves in ((small, _lockstep_moves), (rest, _sequential_moves)):
        if ids:
            batch = _louvain([graphs[i] for i in ids], [seeds[i] for i in ids], moves)
            for i, res in zip(ids, batch):
                out[i] = res
    return out


def csr_operator(graph, edge_values: np.ndarray | None = None,
                 self_values: np.ndarray | None = None) -> CsrOperator:
    """Symmetric n x n CSR matrix on the adjacency of ``graph``.

    ``graph`` is anything with ``num_nodes``, ``indptr`` and ``indices``
    (a ``Graph`` or a ``GraphBatch``). Edge slots hold ``edge_values``
    (ones by default), which must be symmetric in their endpoints. With
    ``self_values`` every row also gets a diagonal slot, placed ahead of
    its neighbours.
    """
    n = graph.num_nodes
    if edge_values is None:
        edge_values = np.ones(graph.indices.size)
    if self_values is None:
        return CsrOperator(edge_values, graph.indices, graph.indptr, (n, n))
    indptr = graph.indptr + np.arange(n + 1)
    slots = np.arange(graph.indices.size) + np.repeat(np.arange(1, n + 1), graph.degrees)
    indices = np.empty(indptr[-1], dtype=np.int64)
    values = np.empty(indptr[-1])
    indices[indptr[:-1]] = np.arange(n)
    values[indptr[:-1]] = self_values
    indices[slots] = graph.indices
    values[slots] = edge_values
    return CsrOperator(values, indices, indptr, (n, n))


def _laplacian_edges(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Row of every edge slot and its normalized Laplacian entry -1/sqrt(d_u d_v)."""
    inv_sqrt = 1.0 / np.sqrt(np.maximum(graph.degrees, 1.0))
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    return src, -(inv_sqrt[src] * inv_sqrt[graph.indices])


def sparse_laplacian(graph: Graph) -> CsrOperator:
    """Symmetric normalized Laplacian; isolated nodes keep a unit diagonal."""
    return csr_operator(graph, _laplacian_edges(graph)[1], np.ones(graph.num_nodes))


def dense_laplacian(graph: Graph) -> np.ndarray:
    """``sparse_laplacian(graph)`` as a dense matrix, filled without a sparse one."""
    src, values = _laplacian_edges(graph)
    lap = np.eye(graph.num_nodes)
    lap[src, graph.indices] = values
    return lap


def laplacian_pe(graph: Graph, k_pe: int) -> np.ndarray:
    """Positional encoding from the k_pe smallest non-trivial Laplacian eigenvectors.

    Graphs up to ``DENSE_LAPE_MAX_NODES`` nodes, and requests for nearly the
    whole spectrum, use dense ``eigh``. Larger graphs use shift-invert
    Lanczos from a fixed start vector, so repeated calls are byte-identical.
    Only the lowest eigenvector is dropped as trivial. A graph with c
    connected components of two or more nodes has c zero eigenvalues, so
    its first c - 1 columns lie in their null space, spanned by the
    degree-scaled component indicators (isolated nodes have eigenvalue 1).
    Column signs are fixed deterministically: the entry of largest absolute
    value is made positive (lowest node index wins ties). When the graph has
    fewer than k_pe non-trivial eigenvectors the remaining columns are zero.
    """
    if k_pe < 1:
        raise ContractError(f"k_pe must be >= 1, got {k_pe}")
    n = graph.num_nodes
    try:  # a size beyond numpy's index range or the memory is invalid input
        out = np.zeros((n, k_pe))
    except (ValueError, MemoryError) as exc:
        raise ContractError(f"k_pe {k_pe} is too large for {n} nodes: {exc}") from None
    if n <= 1:
        return out
    avail = min(k_pe, n - 1)
    if n <= DENSE_LAPE_MAX_NODES or k_pe >= n - 1:
        cols = np.linalg.eigh(dense_laplacian(graph))[1][:, 1:avail + 1]
    else:
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        vals, vecs = eigsh(sparse_laplacian(graph).to_scipy().tocsc(), k=avail + 1,
                           sigma=_EIGSH_SIGMA, which="LM", v0=v0)
        cols = vecs[:, np.argsort(vals, kind="stable")[1:]]
    magnitude = np.abs(cols)
    # Near-ties in |entry| resolve to the lowest node index.
    pivot = np.argmax(magnitude >= magnitude.max(axis=0) * (1.0 - 1e-12), axis=0)
    out[:, :avail] = np.where(cols[pivot, np.arange(avail)] < 0, -cols, cols)
    return out


def _halves(bitgen: np.random.PCG64, count: int) -> list[int]:
    """The next ``count`` 64-bit words of ``bitgen`` as 32-bit halves, low half first."""
    return bitgen.random_raw(count).astype("<u8", copy=False).view("<u4").tolist()


def _bounded(r: int, halves: list[int], pos: int,
             bitgen: np.random.PCG64) -> tuple[int, int]:
    """``Generator.integers(r)`` for 1 <= r <= 2**32, from ``halves[pos:]``.

    Lemire's method as numpy runs it: a range of 1 takes nothing; otherwise
    take the next half x, m = x * r, take another while m mod 2**32 is
    below (2**32 - r) % r, and draw m >> 32. Returns the draw and the
    position after the halves taken; ``halves`` is extended from
    ``bitgen`` when it runs out.
    """
    if r == 1:
        return 0, pos
    while True:
        if pos == len(halves):
            halves += _halves(bitgen, 8)
        m = halves[pos] * r
        pos += 1
        low = m & 0xFFFFFFFF
        if low >= r or low >= ((1 << 32) - r) % r:  # (2**32 - r) % r < r
            return m >> 32, pos


def sample_walks(graph: Graph, num_walks: int, walk_length: int, seed: int) -> WalkPool:
    """Uniform random walks: random start node, then T uniform neighbor steps.

    A walk starting on an isolated node is the singleton sequence, padded
    with ``-1``s to the matrix width. No other walk ends early: after the
    first step the previous node is always a neighbour. An empty pool
    (num_walks=0) is valid and contributes nothing downstream.

    The walks are those of one ``np.random.default_rng(seed)`` drawing
    ``integers(num_nodes)`` for each start and ``integers(degree)`` for each
    step, draw for draw; ``_bounded`` computes each draw from the raw words
    of the generator's ``PCG64``, without a generator call per draw. A test
    pins the pools against that per-draw sampler (``tests/oracles.py``).
    """
    if walk_length < 1:
        raise ContractError(f"walk_length must be >= 1, got {walk_length}")
    if num_walks < 0:
        raise ContractError(f"num_walks must be >= 0, got {num_walks}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    n = graph.num_nodes
    if num_walks and n < 1:
        raise ContractError("sample_walks needs a node to start from, the graph has none")
    bitgen = np.random.PCG64(seed)
    try:  # a pool beyond numpy's index range or the memory fails here, before any draw
        matrix = np.empty((num_walks, walk_length + 1), dtype=np.int64)
        # Without rejections, which are rare, a walk takes at most walk_length + 1 halves.
        halves = _halves(bitgen, (matrix.size + 1) // 2)
    except (ValueError, MemoryError) as exc:
        raise ContractError(f"a pool of {num_walks} walks of length {walk_length} is too "
                            f"large: {exc}") from None
    pos = 0
    ptr, nbrs = graph.indptr.tolist(), graph.indices.tolist()
    walks = []
    for _ in range(num_walks):
        cur, pos = _bounded(n, halves, pos, bitgen)
        seq = [cur]
        for _ in range(walk_length):
            lo, hi = ptr[cur], ptr[cur + 1]
            if lo == hi:
                break
            step, pos = _bounded(hi - lo, halves, pos, bitgen)
            cur = nbrs[lo + step]
            seq.append(cur)
        walks.append(seq + [-1] * (walk_length + 1 - len(seq)))
    matrix = np.array(walks, dtype=np.int64).reshape(matrix.shape)
    return WalkPool(walks=matrix, walk_length=walk_length, seed=seed)


def ga_mlp_aggregate(graph: Graph, features: np.ndarray) -> np.ndarray:
    """1-hop aggregation X~ = A D^-1 X: each node sums x_v / deg(v) over neighbors."""
    if features.shape[0] != graph.num_nodes:
        raise ContractError(
            f"feature rows {features.shape[0]} != num_nodes {graph.num_nodes}"
        )
    deg = graph.degrees.astype(np.float64)
    return csr_operator(graph) @ (features / np.maximum(deg, 1.0)[:, None])


def disjoint_union(graphs: list[Graph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node offsets [G+1], ``indptr`` and ``indices`` (int64) of the block-diagonal union."""
    off = _offsets([g.num_nodes for g in graphs])
    indptr = _offsets(_packed([g.degrees for g in graphs], np.int64, 1))
    indices = _packed([g.indices + lo for g, lo in zip(graphs, off.tolist())], np.int64, 1)
    return off, indptr, indices


def aggregate_blocks(graphs: list[Graph], lapes: list[np.ndarray]) -> list[np.ndarray]:
    """``ga_mlp_aggregate`` of concat(X, lape) for every graph, as row views of one array.

    One call on the disjoint union (a block-diagonal adjacency); each
    graph's rows are bit-equal to aggregating that graph alone. The union is
    not wrapped in a ``Graph``, which would check every edge again.
    """
    off, indptr, indices = disjoint_union(graphs)
    x = np.concatenate([_packed([g.features for g in graphs], np.float64, 2),
                        _packed(lapes, np.float64, 2)], axis=1)
    agg = ga_mlp_aggregate(SimpleNamespace(num_nodes=int(off[-1]), indptr=indptr,
                                           indices=indices, degrees=np.diff(indptr)), x)
    off = off.tolist()
    return [agg[lo:hi] for lo, hi in zip(off, off[1:])]


def default_num_walks(num_nodes: int) -> int:
    """Pool size heuristic: a quarter of the nodes, clamped to [4, 64]."""
    return int(np.clip(num_nodes // 4, 4, 64))


def _derived_seed(seed: int, graph_index: int, stream: int) -> int:
    ss = np.random.SeedSequence([seed, graph_index, stream])
    return int(ss.generate_state(1)[0])


def build_struct_caches(dataset: Dataset, seed: int, k_pe: int = 8,
                        walk_length: int = 8, num_walks: int | None = None) -> list[StructCache]:
    """Preprocess every graph; RNG streams derive from (seed, graph index)."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    graphs = dataset.graphs
    lapes = [laplacian_pe(g, k_pe) for g in graphs]
    aggs = aggregate_blocks(graphs, lapes)
    clusters = louvain_cluster(graphs, [_derived_seed(seed, i, 0) for i in range(len(graphs))])
    return [StructCache(
        clusters=c, lape=lape, agg_features=agg,
        walk_pool=sample_walks(g, default_num_walks(g.num_nodes) if num_walks is None
                               else num_walks, walk_length, _derived_seed(seed, i, 1)),
    ) for i, (g, c, lape, agg) in enumerate(zip(graphs, clusters, lapes, aggs))]


def _offsets(sizes: list[int]) -> np.ndarray:
    off = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, dtype=np.int64, out=off[1:])
    return off


def _packed(parts: list[np.ndarray], dtype, ndim: int) -> np.ndarray:
    if not parts:
        return np.zeros((0,) * ndim, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def save_struct_caches(path, caches: list[StructCache], dataset_name: str, seed: int) -> None:
    """Persist per-dataset caches as one ``structcache/3`` .npz sidecar.

    Every field is one packed array over all graphs (see the module
    docstring). ``lape``, ``agg_features`` and the walk matrices must have
    the same width in every cache; walk pools of another ``walk_length``
    than the first raise ``ContractError`` naming the first such graph.
    """
    walk_length = caches[0].walk_pool.walk_length if caches else 0
    for i, c in enumerate(caches):
        if c.walk_pool.walk_length != walk_length:
            raise ContractError(f"graph {i} has walk_length {c.walk_pool.walk_length}, "
                                f"graph 0 has {walk_length}; one sidecar holds one walk length")
    meta = {"format": STRUCT_CACHE_FORMAT, "dataset": dataset_name, "seed": seed,
            "num_graphs": len(caches), "walk_length": walk_length}
    arrays = dict(
        meta=np.str_(json.dumps(meta)),
        node_off=_offsets([c.clusters.cluster_of.size for c in caches]),
        cluster=_packed([c.clusters.cluster_of for c in caches], np.int64, 1),
        lape=_packed([c.lape for c in caches], np.float64, 2),
        agg=_packed([c.agg_features for c in caches], np.float64, 2),
        modularity=np.array([c.clusters.modularity for c in caches], dtype=np.float64),
        level_off=_offsets([len(c.clusters.level_modularity) for c in caches]),
        levels=np.array([x for c in caches for x in c.clusters.level_modularity],
                        dtype=np.float64),
        pool_off=_offsets([len(c.walk_pool.walks) for c in caches]),
        walks=_packed([c.walk_pool.walks for c in caches], np.int64, 2).reshape(
            -1, walk_length + 1),
        wseed=np.array([c.walk_pool.seed for c in caches], dtype=np.int64),
    )
    with open(path, "wb") as fh:  # a handle, so that np.savez adds no ".npz" suffix
        np.savez(fh, **arrays)


# Every sidecar field: dtype and number of dimensions.
_FIELDS = {
    "node_off": (np.int64, 1), "cluster": (np.int64, 1), "lape": (np.float64, 2),
    "agg": (np.float64, 2), "modularity": (np.float64, 1), "level_off": (np.int64, 1),
    "levels": (np.float64, 1), "pool_off": (np.int64, 1), "walks": (np.int64, 2),
    "wseed": (np.int64, 1),
}


def _check_offsets(path: Path, name: str, off: np.ndarray, end: int,
                   entries: int | None = None) -> None:
    if entries is not None and off.size != entries:
        raise FormatError(f"{path}: offsets {name!r} have {off.size} entries, expected {entries}")
    if off.size == 0 or off[0] != 0 or np.any(np.diff(off) < 0) or off[-1] != end:
        raise FormatError(f"{path}: offsets {name!r} are not monotone from 0 to {end}")


def _check_layout(path: Path, fields: dict[str, np.ndarray], num_graphs: int,
                  walk_length: int) -> None:
    """Raise ``FormatError`` unless the packed fields describe ``num_graphs`` graphs
    with finite float fields, whose cluster and walk ids stay inside their own graph."""
    for name, (dtype, ndim) in _FIELDS.items():
        arr = fields[name]
        if arr.dtype != dtype or arr.ndim != ndim:
            raise FormatError(f"{path}: field {name!r} is {arr.dtype} with shape {arr.shape}")
        if arr.dtype == np.float64 and not np.isfinite(arr).all():
            raise FormatError(f"{path}: field {name!r} holds NaN or infinite values")
    for name in ("modularity", "wseed"):
        if fields[name].size != num_graphs:
            raise FormatError(f"{path}: field {name!r} has {fields[name].size} entries "
                              f"for {num_graphs} graphs")
    _check_offsets(path, "node_off", fields["node_off"], fields["cluster"].size, num_graphs + 1)
    for name in ("lape", "agg"):
        if fields[name].shape[0] != fields["cluster"].size:
            raise FormatError(f"{path}: field {name!r} has {fields[name].shape[0]} rows "
                              f"for {fields['cluster'].size} nodes")
    _check_offsets(path, "level_off", fields["level_off"], fields["levels"].size, num_graphs + 1)
    walks = fields["walks"]
    if walks.shape[0] and walk_length < 1:
        raise FormatError(f"{path}: holds walks for walk_length {walk_length} in meta, "
                          "which must be >= 1")
    if walks.shape[1] != walk_length + 1:
        raise FormatError(f"{path}: field 'walks' has {walks.shape[1]} columns "
                          f"for walk_length {walk_length}")
    _check_offsets(path, "pool_off", fields["pool_off"], walks.shape[0], num_graphs + 1)
    sizes = np.diff(fields["node_off"])
    cluster = fields["cluster"]
    if np.any((cluster < 0) | (cluster >= np.repeat(sizes, sizes))):
        raise FormatError(f"{path}: field 'cluster' holds ids outside [0, n) of their graph")
    n = np.repeat(sizes, np.diff(fields["pool_off"]))[:, None]
    valid = (walks >= 0) & (walks < n)
    valid[:, 1:] |= np.all(walks[:, 1:] == -1, axis=1, keepdims=True)  # singleton tails
    if not valid.all():
        raise FormatError(f"{path}: field 'walks' holds ids outside [0, n) of their graph "
                          "or -1 outside the tail of a singleton walk")


# What reading a member of a damaged archive raises.
_MEMBER_ERRORS = (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error)


def _read_fields(path: Path, data) -> tuple[dict[str, np.ndarray], dict]:
    """The meta dict and every field of an open ``structcache/3`` archive."""
    try:
        meta = json.loads(str(data["meta"]))
    except (KeyError, *_MEMBER_ERRORS) as exc:
        raise FormatError(f"{path}: not a struct cache: {exc}") from exc
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != STRUCT_CACHE_FORMAT:
        raise FormatError(f"{path}: unsupported cache format {fmt!r}; re-run "
                          f"`graphdistill preprocess` to rebuild it as {STRUCT_CACHE_FORMAT}")
    if not (isinstance(meta.get("num_graphs"), int) and meta["num_graphs"] >= 0
            and isinstance(meta.get("walk_length"), int)):
        raise FormatError(f"{path}: bad num_graphs or walk_length in meta")
    fields = {}
    for name in _FIELDS:
        if name not in data.files:
            raise FormatError(f"{path}: struct cache has no field {name!r}")
        try:
            fields[name] = data[name]
        except _MEMBER_ERRORS as exc:
            raise FormatError(f"{path}: cannot read field {name!r}: {exc}") from exc
    return fields, meta


def load_struct_caches(path) -> tuple[list[StructCache], dict]:
    """Read a ``structcache/3`` sidecar; every returned array is a read-only view.

    A file that is not such a sidecar, misses a field, has inconsistent
    offsets or holds an id outside its graph raises ``FormatError`` naming
    ``path``. Sidecars of an older format must be rebuilt with
    ``graphdistill preprocess``.
    """
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"struct cache not found: {path}")
    try:
        fh = path.open("rb")  # owned here: np.load leaks its own handle on a cut zip
    except OSError as exc:
        raise FormatError(f"{path}: cannot open struct cache: {exc}") from exc
    with fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise FormatError(f"{path}: not an .npz struct cache: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise FormatError(f"{path}: not an .npz struct cache")
        with data:
            fields, meta = _read_fields(path, data)
    num_graphs, walk_length = meta["num_graphs"], meta["walk_length"]
    _check_layout(path, fields, num_graphs, walk_length)
    for arr in fields.values():
        arr.flags.writeable = False

    cluster, lape, agg, walks = (fields[k] for k in ("cluster", "lape", "agg", "walks"))
    node_off, level_off, pool_off = (
        fields[k].tolist() for k in ("node_off", "level_off", "pool_off"))
    modularities, levels, seeds = (
        fields[k].tolist() for k in ("modularity", "levels", "wseed"))
    caches = []
    for i in range(num_graphs):
        lo, hi = node_off[i], node_off[i + 1]
        cluster_of = cluster[lo:hi]
        caches.append(StructCache(
            clusters=ClusterAssignment(
                cluster_of=cluster_of,
                num_clusters=int(cluster_of.max()) + 1 if hi > lo else 0,
                modularity=modularities[i],
                level_modularity=levels[level_off[i]:level_off[i + 1]],
            ),
            lape=lape[lo:hi],
            agg_features=agg[lo:hi],
            walk_pool=WalkPool(
                walks=walks[pool_off[i]:pool_off[i + 1]],
                walk_length=walk_length,
                seed=seeds[i],
            ),
        ))
    return caches, meta

"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (dense matrices, brute-force
enumeration, finite differences) and shares no code with the package paths
it checks.
"""

import numpy as np

from graphdistill import autodiff as ad


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central-difference gradients of a scalar loss wrt a dict of Tensors."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.values)
        flat = p.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss_fn().values)
            flat[i] = orig - step
            lo = float(loss_fn().values)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-6):
    for name, num in numeric.items():
        ana = analytic[name] if analytic[name] is not None else np.zeros_like(num)
        denom = np.maximum(np.abs(num), abs_floor)
        err = np.max(np.abs(ana - num) / denom)
        assert err < rel_tol, f"gradient mismatch for {name}: rel err {err:.3g}"


def autodiff_grads(loss_fn, params):
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    ad.backward(loss)
    return {name: p.grad for name, p in params.items()}


def all_partitions(n):
    """Every partition of range(n), via restricted growth strings."""
    assignment = [0] * n

    def rec(i, max_used):
        if i == n:
            yield list(assignment)
            return
        for c in range(max_used + 2):
            assignment[i] = c
            yield from rec(i + 1, max(max_used, c))

    yield from rec(0, -1)


def dense_adjacency(graph):
    a = np.zeros((graph.num_nodes, graph.num_nodes))
    for u in range(graph.num_nodes):
        for v in graph.neighbors(u):
            a[u, v] = 1.0
    return a


def dense_batch_adjacency(graphs):
    """Block-diagonal 0/1 adjacency of a list of graphs, in batch order."""
    n = sum(g.num_nodes for g in graphs)
    a = np.zeros((n, n))
    off = 0
    for g in graphs:
        a[off:off + g.num_nodes, off:off + g.num_nodes] = dense_adjacency(g)
        off += g.num_nodes
    return a


def dense_gcn_operator(a):
    """D^-1/2 (A + I) D^-1/2 with D the row sums of A + I."""
    a_hat = a + np.eye(a.shape[0])
    d = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return d[:, None] * a_hat * d[None, :]


def dense_normalized_laplacian(graph):
    """I - D^-1/2 A D^-1/2; isolated nodes keep a unit diagonal."""
    a = dense_adjacency(graph)
    deg = a.sum(axis=1)
    d = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    return np.eye(graph.num_nodes) - d[:, None] * a * d[None, :]


def dense_modularity(graph, assignment):
    """Q = tr(S^T B S) / 2m with B = A - k k^T / 2m."""
    a = dense_adjacency(graph)
    k = a.sum(axis=1)
    m2 = k.sum()
    if m2 == 0:
        return 0.0
    b = a - np.outer(k, k) / m2
    num_comm = int(max(assignment)) + 1
    s = np.zeros((graph.num_nodes, num_comm))
    s[np.arange(graph.num_nodes), assignment] = 1.0
    return float(np.trace(s.T @ b @ s) / m2)


def best_partition_bruteforce(graph):
    best_q, best = -np.inf, None
    for assignment in all_partitions(graph.num_nodes):
        q = dense_modularity(graph, assignment)
        if q > best_q:
            best_q, best = q, assignment
    return best, best_q


def dense_ga_aggregate(graph, x):
    a = dense_adjacency(graph)
    deg = a.sum(axis=1)
    dinv = np.diag(np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0))
    return a @ dinv @ x


def kl_divergence(p, q):
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def path_kl_oracle(h_teacher, h_student, walks, include_start=True):
    """Direct per-walk KL summation, averaged over the walk collection."""
    if len(walks) == 0:
        return 0.0
    total = 0.0
    for walk in walks:
        nodes = np.asarray(walk) if include_start else np.asarray(walk)[1:]
        if nodes.size < 2:
            continue
        anchor = int(walk[0])
        p = softmax_np(h_teacher[nodes] @ h_teacher[anchor])
        q = softmax_np(h_student[nodes] @ h_student[anchor])
        total += kl_divergence(p, q)
    return total / len(walks)


def random_er_graph(rng, n, p=0.3, feature_dim=3, allow_isolated=True):
    from graphdistill.data import Graph

    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    feats = rng.normal(size=(n, feature_dim))
    g = Graph.from_edges(n, edges, feats, int(rng.integers(2)))
    if not allow_isolated and n > 1:
        for u in range(n):
            if g.degrees[u] == 0:
                v = (u + 1) % n
                edges.append((u, v))
        g = Graph.from_edges(n, edges, feats, g.label)
    return g

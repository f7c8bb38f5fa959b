import numpy as np
import pytest

from graphdistill.data import Graph
from graphdistill.structure import (
    StructCache,
    _derived_seed,
    default_num_walks,
    ga_mlp_aggregate,
    laplacian_pe,
    louvain_cluster,
    sample_walks,
)


def build_graph(n, edges, features=None, label=0):
    if features is None:
        features = np.ones((n, 1))
    return Graph.from_edges(n, edges, features, label)


def build_struct_cache(graph, graph_index, seed, k_pe=8, walk_length=8, num_walks=None):
    """One graph's cache as ``build_struct_caches`` builds it at ``graph_index``,
    computed on that graph alone (its own ``ga_mlp_aggregate`` call)."""
    clusters = louvain_cluster([graph], [_derived_seed(seed, graph_index, 0)])[0]
    lape = laplacian_pe(graph, k_pe)
    agg = ga_mlp_aggregate(graph, np.concatenate([graph.features, lape], axis=1))
    count = default_num_walks(graph.num_nodes) if num_walks is None else num_walks
    pool = sample_walks(graph, count, walk_length, _derived_seed(seed, graph_index, 1))
    return StructCache(clusters=clusters, lape=lape, agg_features=agg, walk_pool=pool)


@pytest.fixture
def path3():
    # 0 - 1 - 2
    return build_graph(3, [(0, 1), (1, 2)], np.array([[1.0], [2.0], [3.0]]))


@pytest.fixture
def k2():
    return build_graph(2, [(0, 1)])


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_triangles():
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def isolated_node():
    return build_graph(1, [])

import io
import json
import struct
import zipfile

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


def declare_checkpoint_shape(path, shape):
    """Rewrite the ``.ckpt`` header at ``path`` so that its first parameter
    declares ``shape``; the parameter bytes stay as they were."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    header["params"][0]["shape"] = list(shape)
    forged = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(forged)) + forged + raw[12 + hlen:])


def declare_member_shape(path, member, shape):
    """Rewrite the ``.npy`` header of ``member`` in the ``.npz`` at ``path`` so
    that it declares ``shape``; the member's data bytes stay as they were."""
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    raw = io.BytesIO(members[f"{member}.npy"])
    np.lib.format.read_magic(raw)
    _, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
    forged = io.BytesIO()
    np.lib.format.write_array_header_1_0(forged, {
        "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": fortran,
        "shape": tuple(shape)})
    members[f"{member}.npy"] = forged.getvalue() + raw.read()
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


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

"""Synthetic generators: the same draws, edges and generator state as the
reference implementations, and pinned benchmark inputs."""

import hashlib

import numpy as np
import pytest

from graphdistill import synth
from graphdistill.data import save_tudataset
from graphdistill.errors import ConfigError
from graphdistill.synth import preferential_attachment_edges, two_class_structural

from oracles import reference_preferential_attachment_edges


def both_ways(n, extra_edges, seed=0):
    """Edges and final state of the package and the reference, each from its own
    ``default_rng(seed)``."""
    out = []
    for make in (preferential_attachment_edges, reference_preferential_attachment_edges):
        rng = np.random.default_rng(seed)
        edges = np.asarray(make(n, rng, extra_edges), dtype=np.int64).reshape(-1, 2)
        out.append((edges, rng.bit_generator.state))
    return out


def assert_same_as_reference(n, extra_edges, seed=0):
    (got, got_state), (want, want_state) = both_ways(n, extra_edges, seed)
    np.testing.assert_array_equal(got, want)
    assert got_state == want_state


class TestPreferentialAttachment:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 16, 17, 100, 333])
    @pytest.mark.parametrize("seed", [0, 1, 421])
    def test_tree_equals_reference(self, n, seed):
        assert_same_as_reference(n, 0, seed)

    @pytest.mark.parametrize("n,extra", [(2, 1), (2, 5), (3, 7), (9, 4), (100, 20), (250, 50)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_with_extra_edges_equals_reference(self, n, extra, seed):
        assert_same_as_reference(n, extra, seed)

    @pytest.mark.parametrize("n", [0, 1])
    def test_extra_edges_need_two_nodes(self, n):
        for make in (preferential_attachment_edges, reference_preferential_attachment_edges):
            with pytest.raises(ValueError):
                make(n, np.random.default_rng(0), 1)

    def test_returns_int64_pairs(self):
        edges = preferential_attachment_edges(50, np.random.default_rng(3), 10)
        assert edges.dtype == np.int64 and edges.shape == (59, 2)
        np.testing.assert_array_equal(edges[:49, 1], np.arange(1, 50))
        assert np.all(edges[:49, 0] < edges[:49, 1])

    def test_shared_generator_across_graphs(self):
        """One generator over consecutive graphs, with a 32-bit ``integers`` draw
        between them that leaves half a word buffered for the extra edges."""
        states = []
        for make in (preferential_attachment_edges, reference_preferential_attachment_edges):
            rng = np.random.default_rng(99)
            out = []
            for n in (60, 1, 0, 45, 2, 80):
                n_extra = n // 5 if n > 1 else 0
                out.append(np.asarray(make(n, rng, n_extra), dtype=np.int64).reshape(-1, 2))
                rng.integers(0, 10)
                if not rng.bit_generator.state["has_uint32"]:
                    rng.integers(0, 10)  # that draw took the buffered half; buffer one
                assert rng.bit_generator.state["has_uint32"] == 1
            states.append((out, rng.bit_generator.state))
        (got, got_state), (want, want_state) = states
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert got_state == want_state

    def test_float_path_on_every_step_equals_reference(self, monkeypatch):
        """A margin wider than any distance sends every step through numpy's float cdf."""
        calls = []
        float_choice = synth._float_choice
        monkeypatch.setattr(synth, "_MARGIN_ULPS", 2**80)
        monkeypatch.setattr(synth, "_float_choice", lambda w, u: calls.append(1) or
                            float_choice(w, u))
        for n, seed in [(2, 0), (30, 1), (200, 2)]:
            calls.clear()
            assert_same_as_reference(n, n // 5, seed)
            assert len(calls) == n - 1

    def test_integer_path_alone_equals_reference(self, monkeypatch):
        """With no margin, the prefix-sum descent settles every step by itself."""
        monkeypatch.setattr(synth, "_MARGIN_ULPS", 0)
        monkeypatch.setattr(synth, "_float_choice", None)
        for seed in range(4):
            assert_same_as_reference(500, 100, seed)


def test_upper_pairs_cached_read_only():
    iu, ju = synth._upper_pairs(7)
    assert synth._upper_pairs(7)[0] is iu
    np.testing.assert_array_equal(np.stack([iu, ju]), np.triu_indices(7, 1))
    for a in (iu, ju):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


# sha256 of the benchmark inputs, as written before the generators were vectorized.
PINNED_TU = {
    "synthetic-binary_A.txt":
        "fa6fdb61eea8f0b07fc022e7c0fdd8cbd455d0bf1fd3ffee43121dd407803118",
    "synthetic-binary_graph_indicator.txt":
        "95622398ccd78e813e0d6ff87c9e45e11dd0df4900b80430d656bd08acdae263",
    "synthetic-binary_graph_labels.txt":
        "3821aca6097f4f3e65f4b00ff47febaa420c0bf246bd12b4a9a652b16241b257",
    "synthetic-binary_node_labels.txt":
        "6b2ee0a803381c329a5a2b897aa0878c07b5995cd9501850884b219db383971a",
}
PINNED_PA = "723a9c33612af465b32aeeb3ff1a267f6625bb2979f99b1ef4fb1e4a1d88c697"


class TestPinnedBenchmarkInputs:
    def test_two_class_structural_tu_files(self, tmp_path):
        save_tudataset(tmp_path, two_class_structural(405, seed=421))
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == PINNED_TU

    def test_preferential_attachment_edges(self):
        """Four consecutive 2000-node graphs from one generator, as ``large-sparse``."""
        rng = np.random.default_rng(421)
        h = hashlib.sha256()
        for _ in range(4):
            edges = preferential_attachment_edges(2000, rng, 400)
            h.update(np.asarray(edges, dtype="<i8").tobytes())
        assert h.hexdigest() == PINNED_PA


class TestTwoClassStructuralSizes:
    @pytest.mark.parametrize("min_nodes,max_nodes", [(2, 6), (1, 1), (0, 5), (5, 4), (9, 3)])
    def test_bad_node_range_is_config_error(self, min_nodes, max_nodes):
        with pytest.raises(ConfigError, match="3 <= min_nodes <= max_nodes"):
            two_class_structural(20, 0, min_nodes=min_nodes, max_nodes=max_nodes)

    def test_smallest_range_accepted(self):
        ds = two_class_structural(20, 0, min_nodes=3, max_nodes=3)
        assert {g.num_nodes for g in ds.graphs} == {3}
        assert set(ds.labels.tolist()) == {0, 1}

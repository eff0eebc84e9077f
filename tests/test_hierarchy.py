"""Supergraph hierarchy invariants (paper §2.2)."""
import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy, supergraph
from repro.hierarchy.louvain import louvain_plus_level


@pytest.fixture(scope="module")
def h_scinet():
    return build_hierarchy(load_dataset("SciNet").csr(), 25, seed=0)


@pytest.fixture(scope="module")
def h_fbego():
    return build_hierarchy(load_dataset("FbEgo").csr(), 10, seed=0)


def test_level0_identity(h_scinet):
    np.testing.assert_array_equal(h_scinet.leaf_labels[0], np.arange(h_scinet.n))


def test_coarsest_at_most_k(h_scinet):
    assert h_scinet.n_supernodes(h_scinet.n_levels) <= 25


def test_children_cap(h_scinet):
    for level in range(1, h_scinet.n_levels + 1):
        for s in range(h_scinet.n_supernodes(level)):
            assert len(h_scinet.children(level, s)) <= 25


def test_levels_strictly_coarsen(h_scinet):
    counts = [h_scinet.n_supernodes(l) for l in range(h_scinet.n_levels + 1)]
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_leaf_sets_partition(h_scinet):
    for level in range(h_scinet.n_levels + 1):
        seen = np.concatenate(
            [h_scinet.leaf_set(level, s) for s in range(h_scinet.n_supernodes(level))]
        )
        assert len(seen) == h_scinet.n
        assert len(np.unique(seen)) == h_scinet.n


def test_leaf_set_consistent_with_labels(h_scinet):
    level = min(1, h_scinet.n_levels)
    for s in range(min(5, h_scinet.n_supernodes(level))):
        fs = h_scinet.leaf_set(level, s)
        assert (h_scinet.leaf_labels[level][fs] == s).all()


def test_nesting(h_scinet):
    """Each level-l supernode's leaves sit inside one level-(l+1) supernode."""
    for level in range(h_scinet.n_levels):
        lab_lo = h_scinet.leaf_labels[level]
        lab_hi = h_scinet.leaf_labels[level + 1]
        for s in range(min(10, h_scinet.n_supernodes(level))):
            fs = h_scinet.leaf_set(level, s)
            assert len(np.unique(lab_hi[fs])) == 1


def test_parent_labels(h_scinet):
    if h_scinet.n_levels < 1:
        pytest.skip("flat hierarchy")
    up = h_scinet.parent_labels(0)
    np.testing.assert_array_equal(up, h_scinet.leaf_labels[1])


def test_root_query_covers_graph(h_scinet):
    kids, lfs = h_scinet.query_children_leafsets(h_scinet.n_levels + 1, None)
    assert sum(len(f) for f in lfs) == h_scinet.n


def test_children_query(h_fbego):
    if h_fbego.n_levels < 1:
        pytest.skip("flat hierarchy")
    kids, lfs = h_fbego.query_children_leafsets(h_fbego.n_levels, 0)
    for c, f in zip(kids, lfs):
        np.testing.assert_array_equal(
            np.sort(f), np.sort(h_fbego.leaf_set(h_fbego.n_levels - 1, int(c)))
        )


def test_zoom_path_structure(h_scinet):
    rng = np.random.default_rng(0)
    path = h_scinet.random_zoom_path(rng)
    assert path[0] == (h_scinet.n_levels + 1, None)
    assert path[-1][0] == 1  # last query: children of a level-1 supernode
    levels = [pl for pl, _ in path]
    assert levels == list(range(h_scinet.n_levels + 1, 0, -1))


def test_zoom_path_deterministic(h_scinet):
    p1 = h_scinet.random_zoom_path(np.random.default_rng(3))
    p2 = h_scinet.random_zoom_path(np.random.default_rng(3))
    assert p1 == p2


def test_small_graph_flat_hierarchy():
    g = load_dataset("TwEgo").csr()
    h = build_hierarchy(g, 25, seed=0)
    assert h.n_levels == 0
    kids, lfs = h.query_children_leafsets(1, None)
    assert len(kids) == g.n  # single-level drawing: every leaf is a child
    assert all(len(f) == 1 for f in lfs)


@pytest.mark.parametrize("k", [1, 0])
def test_k_below_two_raises(k):
    """k = 1 used to loop forever: no level can merge under a cap of 1."""
    g = CSRGraph(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    with pytest.raises(ValueError, match="k >= 2"):
        build_hierarchy(g, k)


def test_clustering_sees_every_undirected_pair(messy, monkeypatch):
    """A directed arc u -> v with u > v and no reverse arc still reaches
    Louvain+, as the pair (v, u) with weight 1."""
    seen = []

    def spy(a, b, w, n, k, **kw):
        seen.append((a.copy(), b.copy(), w.copy()))
        return louvain_plus_level(a, b, w, n, k, **kw)

    monkeypatch.setattr(supergraph, "louvain_plus_level", spy)
    build_hierarchy(messy, 10, seed=0)
    s, d = messy.edge_array()
    want = sorted(set(zip(np.minimum(s, d).tolist(), np.maximum(s, d).tolist())))
    a, b, w = seen[0]
    assert list(zip(a.tolist(), b.tolist())) == want
    assert (w == 1.0).all()

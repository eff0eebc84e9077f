"""CSR adjacency kernel unit tests."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import csr as csr_mod
from repro.graphs.csr import CSRGraph


def test_basic_shape(tiny):
    assert tiny.n == 6
    assert tiny.m == 9
    assert tiny.indptr[-1] == 9
    assert tiny.rindptr[-1] == 9


def test_out_degrees(tiny):
    assert tiny.out_deg.tolist() == [2, 1, 2, 1, 2, 1]


def test_out_neighbors(tiny):
    assert sorted(tiny.out_neighbors(0).tolist()) == [1, 2]
    assert sorted(tiny.out_neighbors(4).tolist()) == [3, 5]
    assert tiny.out_neighbors(1).tolist() == [2]


def test_in_neighbors(tiny):
    assert sorted(tiny.in_neighbors(2).tolist()) == [0, 1]
    assert sorted(tiny.in_neighbors(3).tolist()) == [2, 4]
    assert sorted(tiny.in_neighbors(4).tolist()) == [3, 5]


def test_edge_array_sorted(tiny):
    s, d = tiny.edge_array()
    assert len(s) == tiny.m
    order = np.lexsort((d, s))
    assert (order == np.arange(len(s))).all()


def test_out_edges_of_batch(tiny):
    s, d = tiny.out_edges_of(np.array([0, 4]))
    pairs = sorted(zip(s.tolist(), d.tolist()))
    assert pairs == [(0, 1), (0, 2), (4, 3), (4, 5)]


def test_out_edges_of_empty(tiny):
    s, d = tiny.out_edges_of(np.array([], dtype=np.int64))
    assert len(s) == 0 and len(d) == 0


def test_in_edges_of_batch(tiny):
    dsts, srcs = tiny.in_edges_of(np.array([2]))
    assert sorted(srcs.tolist()) == [0, 1]
    assert set(dsts.tolist()) == {2}


def test_from_undirected_symmetric():
    g = CSRGraph.from_undirected(3, np.array([0, 1]), np.array([1, 2]))
    assert g.m == 4
    assert sorted(g.out_neighbors(1).tolist()) == [0, 2]
    # undirected => in == out
    assert (g.out_deg == np.array([1, 2, 1])).all()


def test_transition_matrix_row_stochastic(tiny):
    P = tiny.transition_matrix()
    np.testing.assert_allclose(P.sum(axis=1), np.ones(6))


def test_id_out_of_range_raises():
    with pytest.raises(ValueError):
        CSRGraph(2, np.array([0]), np.array([5]))


@pytest.mark.parametrize("src, dst", [([0, 1], [1, -1]), ([-1, 1], [1, 0])])
def test_negative_id_raises(src, dst):
    with pytest.raises(ValueError):
        CSRGraph(3, np.array(src), np.array(dst))


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        CSRGraph(3, np.array([0, 1]), np.array([1]))


def test_dangling_node_allowed():
    g = CSRGraph(3, np.array([0]), np.array([2]))
    assert g.out_deg.tolist() == [1.0, 0.0, 0.0]
    assert g.out_neighbors(2).tolist() == []


def _propagate_by_arc(g, nodes, vals, reverse):
    """Reference for CSRGraph.propagate: one Python step per arc."""
    val_of = dict(zip(nodes.tolist(), vals.tolist()))
    out = np.zeros(g.n)
    arcs = 0
    for u, v in zip(*(a.tolist() for a in g.edge_array())):
        head, tail = (v, u) if reverse else (u, v)
        if head in val_of:
            out[tail] += val_of[head]
            arcs += 1
    return out, arcs


# shares of m that force every propagate round onto one path (a frontier of
# distinct nodes touches at most m arcs; -inf * 0 is nan, so m = 0 goes dense)
ALL_SPARSE, ALL_DENSE = 1.0, float("-inf")


@pytest.mark.parametrize("share", [ALL_SPARSE, ALL_DENSE])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("graph", ["tiny", "messy"])
def test_propagate_matches_per_arc_loop(graph, reverse, share, request, monkeypatch):
    monkeypatch.setattr(csr_mod, "DENSE_ARC_SHARE", share)
    g = request.getfixturevalue(graph)
    rng = np.random.default_rng(1)
    for size in (0, 1, g.n // 3, g.n):
        nodes = np.sort(rng.choice(g.n, size, replace=False))
        vals = rng.random(size)
        sums, arcs = g.propagate(nodes, vals, reverse=reverse)
        want, want_arcs = _propagate_by_arc(g, nodes, vals, reverse)
        assert sums.dtype == np.float64 and sums.shape == (g.n,)
        assert np.array_equal(sums, want)
        assert arcs == want_arcs


@pytest.mark.parametrize("reverse", [False, True])
def test_propagate_paths(tiny, monkeypatch, reverse):
    """The sparse path expands through out/in_edges_of; the dense one does not."""
    calls = []

    def spy(name):
        orig = getattr(CSRGraph, name)

        def wrapped(self, nodes):
            calls.append(name)
            return orig(self, nodes)

        return wrapped

    for name in ("out_edges_of", "in_edges_of"):
        monkeypatch.setattr(CSRGraph, name, spy(name))
    nodes, vals = np.array([0, 4]), np.array([0.5, 2.0])
    monkeypatch.setattr(csr_mod, "DENSE_ARC_SHARE", ALL_DENSE)
    dense = tiny.propagate(nodes, vals, reverse=reverse)
    assert calls == []
    monkeypatch.setattr(csr_mod, "DENSE_ARC_SHARE", ALL_SPARSE)
    sparse = tiny.propagate(nodes, vals, reverse=reverse)
    assert calls == ["in_edges_of" if reverse else "out_edges_of"]
    assert np.array_equal(dense[0], sparse[0]) and dense[1] == sparse[1]


@pytest.mark.parametrize("share", [ALL_SPARSE, ALL_DENSE])
def test_propagate_arcless_graph(share, monkeypatch):
    monkeypatch.setattr(csr_mod, "DENSE_ARC_SHARE", share)
    g = CSRGraph(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    for reverse in (False, True):
        sums, arcs = g.propagate(np.arange(4), np.ones(4), reverse=reverse)
        assert arcs == 0
        assert sums.dtype == np.float64 and np.array_equal(sums, np.zeros(4))


def _slice_concat_reference(indptr, nodes, counts):
    """The two-repeat formula ``_slice_concat`` replaced."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = indptr[nodes]
    offs = np.arange(total, dtype=np.int64)
    block_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return starts.repeat(counts) + (offs - block_starts.repeat(counts))


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.data())
def test_slice_concat_matches_reference(degrees, data):
    """Same int64 indices as the old formula, for frontiers with
    zero-degree nodes, repeats and the empty frontier."""
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    nodes = np.array(
        data.draw(st.lists(st.integers(0, len(degrees) - 1), max_size=10)),
        dtype=np.int64,
    )
    counts = np.diff(indptr)[nodes]
    idx = csr_mod._slice_concat(indptr, nodes, counts)
    ref = _slice_concat_reference(indptr, nodes, counts)
    assert idx.dtype == ref.dtype == np.int64
    assert np.array_equal(idx, ref)

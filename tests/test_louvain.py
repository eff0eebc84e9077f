"""Louvain+ clustering tests (paper Appendix A.1)."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import SMALL_GRAPHS, load_dataset
from repro.hierarchy import supergraph
from repro.hierarchy.louvain import contract, louvain_plus_level, modularity
from repro.hierarchy.supergraph import build_hierarchy
from tests.louvain_reference import louvain_plus_level as reference_level


def _two_cliques():
    # two 5-cliques joined by one edge
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    edges.append((0, 5))
    a = np.array([e[0] for e in edges])
    b = np.array([e[1] for e in edges])
    return a, b, np.ones(len(edges)), 10


def test_two_cliques_found():
    a, b, w, n = _two_cliques()
    labels = louvain_plus_level(a, b, w, n, k=10, seed=0)
    assert len(set(labels[:5])) == 1
    assert len(set(labels[5:])) == 1
    assert labels[0] != labels[5]


def test_labels_compact():
    a, b, w, n = _two_cliques()
    labels = louvain_plus_level(a, b, w, n, k=10, seed=0)
    assert set(labels) == set(range(labels.max() + 1))


def test_size_cap_respected():
    n, u, v = gen.sbm([60, 60], 0.3, 0.02, seed=0)
    labels = louvain_plus_level(u, v, np.ones(len(u)), n, k=7, seed=0)
    assert np.bincount(labels).max() <= 7


@pytest.mark.parametrize("k", [3, 5, 25])
def test_always_coarsens(k):
    n, u, v = gen.sbm([40, 40, 40], 0.2, 0.01, seed=1)
    labels = louvain_plus_level(u, v, np.ones(len(u)), n, k=k, seed=0)
    assert labels.max() + 1 < n


def test_modularity_improves_over_singletons():
    a, b, w, n = _two_cliques()
    labels = louvain_plus_level(a, b, w, n, k=10, seed=0)
    q_single = modularity(np.arange(n), a, b, w)
    q_louvain = modularity(labels, a, b, w)
    assert q_louvain > q_single


def test_modularity_known_value():
    # two disconnected cliques, perfect partition: Q = 1 - 1/2 = 0.5
    edges = []
    for base in (0, 3):
        for i in range(3):
            for j in range(i + 1, 3):
                edges.append((base + i, base + j))
    a = np.array([e[0] for e in edges])
    b = np.array([e[1] for e in edges])
    w = np.ones(len(edges))
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert modularity(labels, a, b, w) == pytest.approx(0.5)


def test_disconnected_components_get_grouped():
    # 4 isolated edges; force path must still coarsen
    a = np.array([0, 2, 4, 6])
    b = np.array([1, 3, 5, 7])
    labels = louvain_plus_level(a, b, np.ones(4), 8, k=4, seed=0)
    assert labels.max() + 1 < 8


def test_contract_weights():
    a, b, w, n = _two_cliques()
    labels = louvain_plus_level(a, b, w, n, k=10, seed=0)
    ca, cb, cw, cn = contract(a, b, w, labels)
    assert cn == labels.max() + 1
    assert cw.sum() == w.sum()  # weight conserved (self-loops kept)
    # the single cross edge survives as weight-1 inter-community edge
    cross = cw[ca != cb]
    assert cross.sum() == 1.0


def test_contract_self_loops_carry_internal_weight():
    a, b, w, n = _two_cliques()
    labels = louvain_plus_level(a, b, w, n, k=10, seed=0)
    ca, cb, cw, cn = contract(a, b, w, labels)
    self_w = cw[ca == cb].sum()
    assert self_w == 20.0  # 2 cliques x 10 internal edges


@st.composite
def _weighted_graphs(draw):
    """Unique undirected edges a <= b sorted by (a, b), as the hierarchy
    passes them: self-loops allowed, isolated nodes likely at this density."""
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    keys = np.unique(np.array([min(p) * n + max(p) for p in pairs], dtype=np.int64))
    weight = st.sampled_from([1.0, 2.0]) | st.floats(0.25, 4.0)
    w = np.array(draw(st.lists(weight, min_size=len(keys), max_size=len(keys))))
    a, b = np.divmod(keys, n)
    return a, b, w, n


@given(_weighted_graphs(), st.integers(0, 3))
def test_level_matches_reference(graph, seed):
    """Same labels as the reference level, ties and float sums included."""
    a, b, w, n = graph
    for k in (2, 3, 5, 25):
        np.testing.assert_array_equal(
            louvain_plus_level(a, b, w, n, k, seed=seed),
            reference_level(a, b, w, n, k, seed=seed),
        )


def _hierarchies_match(g, k, monkeypatch):
    built = []
    for level_fn in (louvain_plus_level, reference_level):
        monkeypatch.setattr(supergraph, "louvain_plus_level", level_fn)
        built.append(build_hierarchy(g, k, seed=0).leaf_labels)
    new, ref = built
    assert len(new) == len(ref)
    for lab_new, lab_ref in zip(new, ref):
        np.testing.assert_array_equal(lab_new, lab_ref)


@pytest.mark.parametrize("k", [5, 10, 25])
@pytest.mark.parametrize("name", SMALL_GRAPHS + ["messy"])
def test_hierarchy_matches_reference(name, k, request, monkeypatch):
    g = request.getfixturevalue("messy") if name == "messy" else load_dataset(name).csr()
    _hierarchies_match(g, k, monkeypatch)


def test_isolated_heavy_hierarchy_matches_reference(monkeypatch):
    """Three arcs among 8,000 nodes: almost every level runs the stall
    branch, which pairs each unattachable singleton with the lowest other."""
    g = CSRGraph(8000, np.array([0, 1, 2]), np.array([1, 2, 3]))
    _hierarchies_match(g, 25, monkeypatch)

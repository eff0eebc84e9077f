"""SimRank baseline tests."""
import math

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.layout.simrank import simrank_matrix, simrank_pdist


def test_diagonal_is_one(twego):
    S = simrank_matrix(twego)
    np.testing.assert_allclose(np.diag(S), np.ones(twego.n))


def test_symmetric_on_undirected(twego):
    S = simrank_matrix(twego)
    np.testing.assert_allclose(S, S.T, atol=1e-12)


def test_range(twego):
    S = simrank_matrix(twego)
    assert (S >= -1e-12).all() and (S <= 1 + 1e-12).all()


def test_known_two_node_value():
    """Two nodes with one common in-neighbor: s = C after convergence."""
    # 0 -> 1, 0 -> 2 (directed): I(1)=I(2)={0}; s(1,2) = C * s(0,0) = C
    g = CSRGraph(3, np.array([0, 0]), np.array([1, 2]))
    S = simrank_matrix(g, n_iter=5)
    assert S[1, 2] == pytest.approx(0.8)


def test_disconnected_pairs_zero():
    # two disjoint directed edges
    g = CSRGraph(4, np.array([0, 2]), np.array([1, 3]))
    S = simrank_matrix(g)
    assert S[0, 2] == 0 and S[1, 3] == 0


def test_pdist_upper_bound_for_zero_similarity():
    g = CSRGraph(4, np.array([0, 2]), np.array([1, 3]))
    D = simrank_pdist(g)
    assert D[0, 2] == pytest.approx(2 * math.log(4))


def test_pdist_zero_diag_symmetric(twego):
    D = simrank_pdist(twego)
    assert (np.diag(D) == 0).all()
    np.testing.assert_allclose(D, D.T)

"""Exact PPR and the PI competitor."""
import numpy as np
import pytest

from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.power_iteration import (
    exact_dppr_matrix,
    ppr_single_source_pi,
)

ALPHA = 0.15


def test_rows_sum_to_one(tiny, tiny_exact_ppr):
    np.testing.assert_allclose(tiny_exact_ppr.sum(axis=1), np.ones(tiny.n), atol=1e-12)


def test_nonnegative(tiny_exact_ppr):
    assert (tiny_exact_ppr >= -1e-15).all()


def test_self_ppr_at_least_alpha(tiny, tiny_exact_ppr):
    assert (np.diag(tiny_exact_ppr) >= ALPHA - 1e-12).all()


def test_one_hop_lower_bound(tiny, tiny_exact_ppr):
    """pi(i, j) >= alpha(1-alpha)/d(i) for any out-neighbor j (Thm 3.3 proof)."""
    for i in range(tiny.n):
        for j in tiny.out_neighbors(i):
            assert tiny_exact_ppr[i, j] >= ALPHA * (1 - ALPHA) / tiny.out_deg[i] - 1e-12


def test_geometric_series_identity(tiny, tiny_exact_ppr):
    """Pi = alpha sum_t (1-a)^t P^t — check by truncated series."""
    P = tiny.transition_matrix()
    acc = np.zeros_like(P)
    M = np.eye(tiny.n)
    for t in range(400):
        acc += ALPHA * (1 - ALPHA) ** t * M
        M = M @ P
    np.testing.assert_allclose(acc, tiny_exact_ppr, atol=1e-10)


def test_dppr_scaling(tiny, tiny_exact_ppr):
    D = exact_dppr_matrix(tiny, ALPHA)
    np.testing.assert_allclose(D, tiny_exact_ppr * tiny.out_deg[:, None])


def test_dppr_total_mass(fbego):
    """Sum of all DPPR values equals m (Eq. 11: sum z_ij = 2m over both dirs)."""
    D = exact_dppr_matrix(fbego, ALPHA)
    assert D.sum() == pytest.approx(fbego.m, rel=1e-9)


def test_pi_matches_exact(tiny, tiny_exact_ppr):
    for s in range(tiny.n):
        vec = ppr_single_source_pi(tiny, s, ALPHA, tol=1e-12)
        np.testing.assert_allclose(vec, tiny_exact_ppr[s], atol=1e-9)


def test_pi_matches_exact_fbego(fbego, fbego_exact_ppr):
    vec = ppr_single_source_pi(fbego, 0, ALPHA, tol=1e-12)
    np.testing.assert_allclose(vec, fbego_exact_ppr[0], atol=1e-9)


def test_pi_charges_budget(tiny):
    b = OpBudget()
    ppr_single_source_pi(tiny, 0, ALPHA, budget=b)
    assert b.ops > tiny.m  # multiple iterations, m ops each


def test_pi_budget_exceeded(fbego):
    with pytest.raises(OpBudgetExceeded):
        ppr_single_source_pi(fbego, 0, ALPHA, budget=OpBudget(limit=10))

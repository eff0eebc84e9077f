"""PDist (Def. 3.1 / Eq. 1) and level-l DPPR (Eq. 2) tests."""
import math

import numpy as np
import pytest

from repro.core.pdist import (
    approx_pdist_error_bounds,
    level_dppr_exact,
    pdist_from_dppr,
    pdist_matrix,
)


def test_bounds():
    n = 100
    vals = pdist_from_dppr(np.array([1e-12, 1e-3, 0.1, 1.0, 10.0, 0.0]), n)
    assert (vals >= 2.0).all()
    assert (vals <= 2 * math.log(n)).all()


def test_zero_maps_to_upper():
    assert pdist_from_dppr(np.array([0.0]), 50)[0] == pytest.approx(2 * math.log(50))


def test_monotone_decreasing():
    z = np.array([1e-6, 1e-4, 1e-2, 1.0])
    d = pdist_from_dppr(z, 10**6)
    assert (np.diff(d) <= 1e-12).all()


def test_exact_formula_midrange():
    # z with 2 <= 1 - ln z <= 2 ln n: untruncated region
    z = np.exp(1 - 5.0)  # -> pdist 5
    assert pdist_from_dppr(np.array([z]), 10**6)[0] == pytest.approx(5.0)


def test_lower_truncation():
    assert pdist_from_dppr(np.array([100.0]), 100)[0] == 2.0


def test_matrix_symmetric(fbego, fbego_exact_dppr):
    D = pdist_matrix(fbego_exact_dppr, fbego.n)
    np.testing.assert_allclose(D, D.T)
    assert (np.diag(D) == 0).all()


def test_matrix_uses_symmetrized_dppr():
    dppr = np.array([[0.0, 0.3], [0.1, 0.0]])
    D = pdist_matrix(dppr, 100)
    expect = min(max(1 - math.log(0.4), 2), 2 * math.log(100))
    assert D[0, 1] == pytest.approx(expect)
    assert D[1, 0] == pytest.approx(expect)


def test_fig1_intuition(fbego, fbego_exact_dppr):
    """Adjacent pairs get small PDist; far pairs approach the bound."""
    D = pdist_matrix(fbego_exact_dppr, fbego.n)
    s, d = fbego.edge_array()
    adj_mean = D[s, d].mean()
    iu = np.triu_indices(fbego.n, k=1)
    assert adj_mean < D[iu].mean()


def test_level_dppr_singletons(fbego, fbego_exact_dppr):
    sets = [np.array([i]) for i in range(5)]
    L = level_dppr_exact(fbego_exact_dppr, sets)
    np.testing.assert_allclose(L, fbego_exact_dppr[:5, :5])


def test_level_dppr_block_average(fbego, fbego_exact_dppr):
    f0, f1 = np.array([0, 1, 2]), np.array([3, 4])
    L = level_dppr_exact(fbego_exact_dppr, [f0, f1])
    assert L[0, 1] == pytest.approx(fbego_exact_dppr[np.ix_(f0, f1)].mean())
    assert L[1, 0] == pytest.approx(fbego_exact_dppr[np.ix_(f1, f0)].mean())


def test_lemma36_constants():
    eps, delta = approx_pdist_error_bounds(theta=0.5, sigma=3.0)
    assert delta == pytest.approx(math.exp(1 - 3.0) / 2)
    assert eps == pytest.approx(1 - math.exp(-1.0))
    assert 0 < eps < 1 and 0 < delta < 1

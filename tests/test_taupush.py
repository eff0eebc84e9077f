"""Tau-Push (Algorithm 1) end-to-end accuracy and behaviour."""
import math
import warnings

import numpy as np
import pytest

from repro.core.pdist import level_dppr_exact, pdist_matrix
from repro.core.taupush import gfp_taumax_query, taupush_params, taupush_query
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.dpr import dpr_vector_local

ALPHA = 0.15
EPS = 1.0 - 1.0 / math.e


@pytest.fixture(scope="module")
def setting(fbego, fbego_exact_dppr):
    h = build_hierarchy(fbego, 10, seed=0)
    kids, leaf_sets = h.query_children_leafsets(h.n_levels + 1, None)
    dpr = dpr_vector_local(fbego, ALPHA)
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    return fbego, leaf_sets, dpr, exact


def _assert_eps_delta(dppr, exact, eps, delta):
    """Theorem 4.3: every off-diagonal entry within Definition 3.5 bounds."""
    k = len(exact)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            bound = eps * delta if exact[i, j] < delta else eps * exact[i, j]
            assert abs(dppr[i, j] - exact[i, j]) <= bound + 1e-12, (i, j)


def test_theorem43_accuracy(setting):
    g, leaf_sets, dpr, exact = setting
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    delta = 1.0 / (10 * len(leaf_sets))
    _assert_eps_delta(res.dppr, exact, EPS, delta)


def test_pdist_conversion(setting):
    g, leaf_sets, dpr, exact = setting
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    np.testing.assert_allclose(res.pdist, pdist_matrix(res.dppr, g.n))


def test_params_formulas(setting):
    g, leaf_sets, _, _ = setting
    delta = 1.0 / (10 * len(leaf_sets))
    tau, rmax, rmax_b = taupush_params(g, leaf_sets)
    assert tau == pytest.approx(1.0 / math.sqrt(len(leaf_sets) * g.n))
    assert rmax == pytest.approx(EPS * delta / (g.m * tau))
    dmax = max(g.out_deg[fs].mean() for fs in leaf_sets)
    assert rmax_b == pytest.approx(EPS * delta / dmax)


def test_gfp_taumax_accuracy(setting):
    g, leaf_sets, dpr, exact = setting
    res = gfp_taumax_query(g, leaf_sets, dpr, ALPHA)
    delta = 1.0 / (10 * len(leaf_sets))
    _assert_eps_delta(res.dppr, exact, EPS, delta)
    assert res.n_gbp_targets == 0


def test_budget_respected(setting):
    g, leaf_sets, dpr, _ = setting
    with pytest.raises(OpBudgetExceeded):
        taupush_query(g, leaf_sets, dpr, ALPHA, budget=OpBudget(5))


def test_result_metadata(setting):
    g, leaf_sets, dpr, _ = setting
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    k = len(leaf_sets)
    assert res.pdist.shape == (k, k)
    assert res.ops > 0
    assert (np.diag(res.pdist) == 0).all()
    off = res.pdist[~np.eye(k, dtype=bool)]
    assert (off >= 2.0).all() and (off <= 2 * math.log(g.n) + 1e-12).all()


def test_gbp_triggers_on_hub_cluster():
    """On the skewed Youtube analog, the hub's level-1 cluster must have a
    GBP-refined target (the filter-refinement actually fires)."""
    g = load_dataset("Youtube").csr()
    h = build_hierarchy(g, 25, seed=0)
    dpr = dpr_vector_local(g, ALPHA)
    hub = int(np.argmax(dpr))
    sup1 = int(h.leaf_labels[1][hub])
    _, leaf_sets = h.query_children_leafsets(1, sup1)
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    assert res.n_gbp_targets >= 1


def test_taupush_bottom_query_accuracy(fbego, fbego_exact_dppr):
    """Bottom-level query: children are individual leaves."""
    leaf_sets = [np.array([i]) for i in [0, 1, 2, 3, 4]]
    dpr = dpr_vector_local(fbego, ALPHA)
    res = taupush_query(fbego, leaf_sets, dpr, ALPHA)
    exact = fbego_exact_dppr[np.ix_([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])]
    delta = 1.0 / (10 * 5)
    _assert_eps_delta(res.dppr, exact, EPS, delta)


def test_tiny_graph_all_levels(tiny, tiny_exact_ppr):
    exact_dppr = tiny_exact_ppr * tiny.out_deg[:, None]
    leaf_sets = [np.array([0, 1, 2]), np.array([3, 4, 5])]
    dpr = dpr_vector_local(tiny, ALPHA)
    res = taupush_query(tiny, leaf_sets, dpr, ALPHA)
    exact = level_dppr_exact(exact_dppr, leaf_sets)
    _assert_eps_delta(res.dppr, exact, EPS, 1.0 / 20)


def test_params_arcless_graph_raises():
    g = CSRGraph(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="arc"):
        taupush_params(g, [np.array([0]), np.array([1, 2])])


def test_params_all_children_dangling(messy):
    """Children whose leaves have no out-arc: every DPPR from S is 0, so
    GBP gets an infinite threshold and pushes nothing."""
    leaf_sets = [np.array([50, 51]), np.array([52]), np.array([55, 56])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, rmax_b = taupush_params(messy, leaf_sets)
        res = taupush_query(messy, leaf_sets, np.ones(messy.n), ALPHA)
    assert rmax_b == math.inf
    assert res.n_gbp_targets == 3 and res.ops == 0
    assert (res.dppr == 0).all()

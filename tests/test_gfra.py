"""GFRA (Algorithm 4) ablation tests."""
import math

import numpy as np
import pytest

from repro.core.gfra import gfra_query
from repro.core.pdist import level_dppr_exact
from repro.core.taupush import taupush_query
from repro.hierarchy.supergraph import build_hierarchy
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.dpr import dpr_vector_local
from repro.pprlib.fora import WalkIndex
from repro.pprviz import ALPHA

EPS = 1.0 - 1.0 / math.e


@pytest.fixture(scope="module")
def setting(fbego, fbego_exact_dppr):
    h = build_hierarchy(fbego, 10, seed=0)
    _, leaf_sets = h.query_children_leafsets(h.n_levels + 1, None)
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    return fbego, leaf_sets, exact


def test_gfra_accuracy_whp(setting):
    g, leaf_sets, exact = setting
    res = gfra_query(g, leaf_sets, ALPHA, rng=np.random.default_rng(3))
    delta = 1.0 / (10 * len(leaf_sets))
    bound = np.where(exact < delta, EPS * delta, EPS * exact)
    ok = np.abs(res.dppr - exact) <= bound + 1e-12
    np.fill_diagonal(ok, True)
    assert ok.mean() >= 0.9


def test_gfra_with_walk_index(setting):
    g, leaf_sets, exact = setting
    delta = 1.0 / (10 * len(leaf_sets))
    idx = WalkIndex(g, ALPHA, EPS, delta, seed=0)
    res = gfra_query(
        g, leaf_sets, ALPHA, rng=np.random.default_rng(3), walk_index=idx
    )
    bound = np.where(exact < delta, EPS * delta, EPS * exact)
    ok = np.abs(res.dppr - exact) <= 2 * bound + 1e-12  # indexed walks coarser
    np.fill_diagonal(ok, True)
    assert ok.mean() >= 0.85


def test_gfra_budget(setting):
    g, leaf_sets, _ = setting
    with pytest.raises(OpBudgetExceeded):
        gfra_query(
            g, leaf_sets, ALPHA, rng=np.random.default_rng(0), budget=OpBudget(3)
        )


def test_gfra_deterministic_given_rng(setting):
    g, leaf_sets, _ = setting
    r1 = gfra_query(g, leaf_sets, ALPHA, rng=np.random.default_rng(5))
    r2 = gfra_query(g, leaf_sets, ALPHA, rng=np.random.default_rng(5))
    np.testing.assert_allclose(r1.dppr, r2.dppr)


def test_grouped_push_beats_per_leaf_ops(fbego):
    """The grouped strategy (Tau-Push/GFRA) does far fewer ops than k^l
    per-leaf FORA invocations for the same query — the §7.4 Table 8 claim."""
    from repro.pprlib.fora import fora_single_source

    h = build_hierarchy(fbego, 10, seed=0)
    _, leaf_sets = h.query_children_leafsets(h.n_levels + 1, None)
    dpr = dpr_vector_local(fbego, ALPHA)
    b_group = OpBudget()
    taupush_query(fbego, leaf_sets, dpr, ALPHA, budget=b_group)
    delta = 1.0 / (10 * len(leaf_sets))
    b_leaf = OpBudget()
    rng = np.random.default_rng(0)
    for fs in leaf_sets:
        for s in fs:
            fora_single_source(
                fbego, int(s), ALPHA, EPS, delta, rng=rng, budget=b_leaf
            )
    assert b_leaf.ops > 3 * b_group.ops

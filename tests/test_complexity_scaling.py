"""Empirical complexity checks backing Table 2's asymptotic claims."""
import math

import pytest

from repro.core.taupush import taupush_query
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import dpr_vector_local
from repro.pprlib.power_iteration import ppr_single_source_pi

ALPHA = 0.15


def _root_query_ops(name, k=25):
    g = load_dataset(name).csr()
    h = build_hierarchy(g, k, seed=0)
    _, leaf_sets = h.query_children_leafsets(h.n_levels + 1, None)
    dpr = dpr_vector_local(g, ALPHA)
    b = OpBudget()
    taupush_query(g, leaf_sets, dpr, ALPHA, budget=b)
    return g, b.ops


def test_taupush_far_below_pi_cost():
    """Tau-Push's root-query op count is orders of magnitude below the
    O(n m) PI cost that the near-exact approach needs (§3.3)."""
    g, ops = _root_query_ops("Amazon")
    pi_cost_one_source = g.m * math.ceil(math.log(1e-9) / math.log(1 - ALPHA))
    pi_cost_all = pi_cost_one_source * g.n
    assert ops < pi_cost_all / 1000


def test_taupush_far_below_nm_on_every_large_graph():
    """Tau-Push root-query ops stay a tiny fraction of n*m on both the
    smallest and the largest analog (near-exact all-source computation is
    Theta(n*m) *per PI pass* and ~127 passes are needed — §3.3), with
    >20x margin against even a single n*m pass."""
    for name in ("Amazon", "Twitter"):
        g, ops = _root_query_ops(name)
        assert ops * 20 < g.n * g.m, (name, ops, g.n * g.m)


def test_pi_cost_linear_in_m(fbego, wiki):
    """PI charges ~iters * m ops (the O(m) per-iteration claim)."""
    b1, b2 = OpBudget(), OpBudget()
    ppr_single_source_pi(fbego, 0, ALPHA, budget=b1)
    ppr_single_source_pi(wiki, 0, ALPHA, budget=b2)
    assert b2.ops / b1.ops == pytest.approx(wiki.m / fbego.m, rel=0.05)


def test_index_space_scaling():
    """Index bytes stay near O(n + k sqrt(k n)) — small relative to graph."""
    from repro.core.index import build_taupush_index

    for name in ("Amazon", "Youtube"):
        g = load_dataset(name).csr()
        h = build_hierarchy(g, 25, seed=0)
        idx = build_taupush_index(g, h, ALPHA)
        k, n = 25, g.n
        soft_bound = 8 * (n + 4 * k * math.sqrt(k * n))  # 8 bytes/value
        assert idx.nbytes < 4 * soft_bound

"""Tau-Push index (§4.3) tests: lookup equivalence, sizes."""
import numpy as np
import pytest

from repro.core.gbp import gbp
from repro.core.index import build_taupush_index
from repro.core.taupush import membership_arrays, taupush_params, taupush_query
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy
from repro.pprlib.budget import OpBudget

ALPHA = 0.15


@pytest.fixture(scope="module")
def yt():
    g = load_dataset("Youtube").csr()
    h = build_hierarchy(g, 25, seed=0)
    idx = build_taupush_index(g, h, ALPHA, 25)
    return g, h, idx


def test_index_has_dpr(yt):
    g, _, idx = yt
    assert len(idx.leaf_dpr) == g.n
    assert idx.leaf_dpr.sum() == pytest.approx(1.0, abs=1e-9)


def test_index_stores_high_dpr_targets(yt):
    g, h, idx = yt
    assert len(idx.gbp_store) > 0
    tau = 1.0 / np.sqrt(25 * g.n)
    for (level, sup) in idx.gbp_store:
        fs = h.leaf_set(level, sup)
        assert idx.leaf_dpr[fs].mean() > tau


def test_index_covers_all_high_dpr_supernodes(yt):
    g, h, idx = yt
    tau = 1.0 / np.sqrt(25 * g.n)
    for level in range(h.n_levels + 1):
        for sup in range(h.n_supernodes(level)):
            fs = h.leaf_set(level, sup)
            if idx.leaf_dpr[fs].mean() > tau:
                assert (level, sup) in idx.gbp_store


def test_stored_columns_cover_siblings(yt):
    """Each stored GBP column spans exactly the target's sibling set."""
    g, h, idx = yt
    for (level, sup), (sids, vals) in idx.gbp_store.items():
        assert len(sids) == len(vals)
        assert sup in sids.tolist()
        if level == h.n_levels:
            assert len(sids) == h.n_supernodes(level)


def test_lookup_api(yt):
    g, h, idx = yt
    (level, sup), (sids, vals) = next(iter(idx.gbp_store.items()))
    np.testing.assert_array_equal(idx.lookup(level, sup, sids), vals)
    np.testing.assert_array_equal(idx.lookup(level, sup, sids[::-1]), vals[::-1])
    assert idx.lookup(level, sup, np.append(sids, -1)) is None
    assert idx.lookup(99, 0, sids) is None


def test_query_with_index_matches_live_gbp(yt):
    """Indexed lookups must be at least as precise as live GBP: both must
    satisfy the same (eps, delta) bound; here we check they agree closely."""
    g, h, idx = yt
    hub = int(np.argmax(idx.leaf_dpr))
    sup1 = int(h.leaf_labels[1][hub])
    kids, leaf_sets = h.query_children_leafsets(1, sup1)
    res_idx = taupush_query(
        g, leaf_sets, idx.leaf_dpr, ALPHA, index=idx, children=(0, kids)
    )
    res_live = taupush_query(g, leaf_sets, idx.leaf_dpr, ALPHA)
    assert res_idx.n_gbp_targets == res_live.n_gbp_targets >= 1
    # the stored column was built with the same sibling set and the same
    # Eq. (6) threshold, so the lookup reproduces the live GBP exactly
    np.testing.assert_allclose(res_idx.dppr, res_live.dppr, atol=1e-12)


def test_index_query_cheaper_than_live(yt):
    g, h, idx = yt
    hub = int(np.argmax(idx.leaf_dpr))
    sup1 = int(h.leaf_labels[1][hub])
    kids, leaf_sets = h.query_children_leafsets(1, sup1)
    b_idx, b_live = OpBudget(), OpBudget()
    taupush_query(g, leaf_sets, idx.leaf_dpr, ALPHA, budget=b_idx,
                  index=idx, children=(0, kids))
    taupush_query(g, leaf_sets, idx.leaf_dpr, ALPHA, budget=b_live)
    assert b_idx.ops < b_live.ops


def test_dpr_only_index_smaller(yt):
    """GFP(tau_max)'s index is the DPR vector alone (Table 10)."""
    g, h, idx = yt
    assert idx.dpr_nbytes == idx.leaf_dpr.nbytes < idx.nbytes


def test_every_stored_column_equals_live_gbp(yt):
    """Every query with a stored child: the column the index serves is
    bit-identical to a live GBP over the query's children."""
    g, h, idx = yt
    queries = [(h.n_levels + 1, None)] + [
        (level, sup)
        for level in range(h.n_levels, 0, -1)
        for sup in range(h.n_supernodes(level))
    ]
    served = 0
    for q in queries:
        kids, leaf_sets = h.query_children_leafsets(*q)
        child_level = h.n_levels if q[1] is None else q[0] - 1
        member, sizes = membership_arrays(g.n, leaf_sets)
        _, _, rmax_b = taupush_params(g, leaf_sets)
        for j, kid in enumerate(kids.tolist()):
            col = idx.lookup(child_level, kid, kids)
            if col is None:
                continue
            live = gbp(g, leaf_sets[j], member, sizes, rmax_b, ALPHA)
            np.testing.assert_array_equal(col, live)
            served += 1
    assert served == len(idx.gbp_store) > 0


def test_index_size_reasonable(yt):
    """Index should be small relative to the graph (paper §7.4: the index
    is 'insignificant compared with the size of the input graph')."""
    g, _, idx = yt
    graph_bytes = g.indices.nbytes + g.indptr.nbytes
    assert idx.nbytes < 5 * graph_bytes

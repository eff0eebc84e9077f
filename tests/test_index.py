"""Tau-Push index (§4.3) tests: lookup equivalence, sizes."""
import numpy as np
import pytest

from repro.core.gbp import gbp
from repro.core.index import build_taupush_index
from repro.core.taupush import membership_arrays, taupush_params, taupush_query
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import leaf_set_dpr

ALPHA = 0.15


@pytest.fixture(scope="module")
def yt():
    g = load_dataset("Youtube").csr()
    h = build_hierarchy(g, 25, seed=0)
    idx = build_taupush_index(g, h, ALPHA)
    return g, h, idx


def hierarchy_queries(h):
    """(child level, kid ids, kid leaf sets) of every hierarchy query."""
    queries = [(h.n_levels + 1, None)] + [
        (level, sup)
        for level in range(h.n_levels, 0, -1)
        for sup in range(h.n_supernodes(level))
    ]
    for q in queries:
        kids, leaf_sets = h.query_children_leafsets(*q)
        child_level = h.n_levels if q[1] is None else q[0] - 1
        yield child_level, kids, leaf_sets


def hierarchy_gbp_targets(g, h, leaf_dpr):
    """(child level, kid) of every child that Algorithm 1 refines by GBP
    in some hierarchy query: tau_j above the query's tau."""
    targets = set()
    for child_level, kids, leaf_sets in hierarchy_queries(h):
        tau, _, _ = taupush_params(g, leaf_sets)
        hit = np.flatnonzero(leaf_set_dpr(leaf_dpr, leaf_sets) > tau)
        targets.update((child_level, int(kid)) for kid in kids[hit])
    return targets


def test_index_has_dpr(yt):
    g, _, idx = yt
    assert len(idx.leaf_dpr) == g.n
    assert idx.leaf_dpr.sum() == pytest.approx(1.0, abs=1e-9)


def test_index_stores_high_dpr_targets(yt):
    """Every stored key is a child whose mean DPR beats its query's tau."""
    g, h, idx = yt
    assert len(idx.gbp_store) > 0
    targets = hierarchy_gbp_targets(g, h, idx.leaf_dpr)
    for key in idx.gbp_store:
        assert key in targets


def test_index_covers_all_high_dpr_supernodes(yt):
    """Every child whose mean DPR beats its query's tau is stored."""
    g, h, idx = yt
    for key in hierarchy_gbp_targets(g, h, idx.leaf_dpr):
        assert key in idx.gbp_store


@pytest.mark.parametrize(
    "graph, k",
    [("twego", 5), ("twego", 25), ("fbego", 5), ("fbego", 25),
     ("messy", 5), ("messy", 25)],
)
def test_index_keys_are_query_targets(request, graph, k):
    """The index stores a column for exactly the children that some
    hierarchy query refines by GBP: no target is missed, no column unread."""
    g = request.getfixturevalue(graph)
    h = build_hierarchy(g, k, seed=0)
    idx = build_taupush_index(g, h, ALPHA)
    assert set(idx.gbp_store) == hierarchy_gbp_targets(g, h, idx.leaf_dpr)


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
    served = 0
    for child_level, kids, leaf_sets in hierarchy_queries(h):
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

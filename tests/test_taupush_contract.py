"""The (eps, delta) contract of Theorem 4.3 on every hierarchy query.

Every query of a hierarchy (the root and the children of every supernode)
runs twice: with the GBP columns served by the Tau-Push index, as
``PPRvizModel.query`` does, and with every GBP target refined live. Both
must be within the Definition 3.5 bounds of the exact level-l DPPR.
"""
import warnings

import numpy as np
import pytest

from repro.core.pdist import level_dppr_exact
from repro.core.taupush import eps_delta, taupush_query
from repro.graphs.datasets import load_dataset
from repro.pprlib.power_iteration import exact_dppr_matrix
from repro.pprviz import ALPHA, preprocess

SMALL_GRAPHS = ["TwEgo", "FbEgo", "Wiki-ii", "Physician", "FilmTrust", "SciNet"]


def every_query(h):
    """(parent_level, sup) of the root query and of every supernode's."""
    yield h.n_levels + 1, None
    for level in range(h.n_levels, 0, -1):
        for sup in range(h.n_supernodes(level)):
            yield level, sup


def contract_violations(g, k):
    """Theorem 4.3 violations over every query, with and without the index:
    a list of (served_by, query, i, j)."""
    model = preprocess(g, k)
    h = model.hierarchy
    exact_leaf = exact_dppr_matrix(g, ALPHA)
    out = []
    for q in every_query(h):
        kids, leaf_sets = h.query_children_leafsets(*q)
        child_level = h.n_levels if q[1] is None else q[0] - 1
        exact = level_dppr_exact(exact_leaf, leaf_sets)
        eps, delta = eps_delta(len(leaf_sets))
        bound = np.where(exact < delta, eps * delta, eps * exact)
        off = ~np.eye(len(leaf_sets), dtype=bool)
        runs = {
            "index": dict(index=model.index, children=(child_level, kids)),
            "live": {},
        }
        for served_by, kw in runs.items():
            res = taupush_query(g, leaf_sets, model.index.leaf_dpr, ALPHA, **kw)
            bad = off & (np.abs(res.dppr - exact) > bound + 1e-12)
            out += [(served_by, q, int(i), int(j)) for i, j in np.argwhere(bad)]
    return out


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_theorem43_every_query(name):
    assert contract_violations(load_dataset(name).csr(), 25) == []


@pytest.mark.parametrize("k", [5, 10, 25])
def test_theorem43_every_query_dangling(messy, k):
    """Dangling and isolated nodes, self-loops and repeated arcs; no
    warning may be raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert contract_violations(messy, k) == []

"""Correctness gate of the benchmark.

Every check runs outside the timed region and without tracing wrappers.
A query that raised, or whose output fails a check, counts as failed; no
failure is skipped.
"""
from __future__ import annotations

import numpy as np

from repro.core.gbp import gbp
from repro.core.taupush import membership_arrays, taupush_query
from repro.pprlib.dpr import dpr_vector_local

TOL = 1e-9  # engine and index agreement, as in tests/


def layout_problems(pdist: np.ndarray, X: np.ndarray) -> list[str]:
    """PDist is finite, symmetric, zero on the diagonal and positive off it;
    the layout is finite with shape (k, 2)."""
    k = len(pdist)
    out = []
    if pdist.shape != (k, k) or not np.isfinite(pdist).all():
        out.append("pdist not a finite k x k matrix")
    elif not np.allclose(pdist, pdist.T, rtol=0.0, atol=1e-12):
        out.append("pdist not symmetric")
    elif np.any(np.diag(pdist) != 0.0):
        out.append("pdist diagonal not zero")
    elif np.any(pdist[~np.eye(k, dtype=bool)] <= 0.0):
        out.append("pdist off-diagonal not positive")
    if X.shape != (k, 2) or not np.isfinite(X).all():
        out.append("layout not a finite (k, 2) array")
    return out


class QueryGate:
    """Checks PPRviz query results.

    A GBP target of a query is an index hit when the index holds its
    column over all of the query's children (the rule in
    ``taupush_query``). Each hit is compared with a live ``gbp`` run;
    live columns are cached per (query, target) since queries repeat.
    A repeated query must give the same ops and PDist.
    """

    def __init__(self, model):
        self.model = model
        self.live: dict[tuple, np.ndarray] = {}
        self.seen: dict[tuple, tuple[int, np.ndarray]] = {}

    def problems(self, query: tuple, X: np.ndarray, res) -> list[str]:
        m = self.model
        out = layout_problems(res.pdist, X)
        ops_pdist = self.seen.setdefault(query, (res.ops, res.pdist))
        if ops_pdist[0] != res.ops or not np.array_equal(ops_pdist[1], res.pdist):
            out.append("repeated query gave different ops or pdist")
        parent_level, sup = query
        kids, leaf_sets = m.hierarchy.query_children_leafsets(parent_level, sup)
        child_level = m.hierarchy.n_levels if sup is None else parent_level - 1
        taus = np.array([m.index.leaf_dpr[fs].mean() for fs in leaf_sets])
        targets = np.flatnonzero(taus > res.tau)
        if len(targets) != res.n_gbp_targets:
            out.append("GBP target count differs from the result's")
        member, sizes = membership_arrays(m.g.n, leaf_sets)
        for j in targets:
            entry = m.index.gbp_store.get((child_level, int(kids[j])))
            if entry is None or not set(kids.tolist()) <= set(entry[0].tolist()):
                continue
            key = (query, int(j))
            if key not in self.live:
                self.live[key] = gbp(
                    m.g, leaf_sets[j], member, sizes, res.rmax_b, m.alpha
                )
            if np.abs(self.live[key] - res.dppr[:, j]).max() > TOL:
                out.append(f"GBP index hit for child {j} differs from live gbp")
        return out


def spark_query_problems(g, leaf_sets, leaf_dpr, alpha, pdist, X) -> list[str]:
    """Spark PDist equals the local ``taupush_query`` on the same input."""
    out = layout_problems(pdist, X)
    local = taupush_query(g, leaf_sets, leaf_dpr, alpha).pdist
    if np.abs(local - pdist).max() > TOL:
        out.append("spark pdist differs from local taupush_query")
    return out


def spark_dpr_problems(g, alpha, dpr: np.ndarray, n_iter: int) -> list[str]:
    """Spark DPR is within the (1 - alpha)^n_iter truncation bound."""
    err = np.abs(dpr - dpr_vector_local(g, alpha)).max()
    if not err <= (1.0 - alpha) ** n_iter:
        return [f"spark DPR off by {err:.3g}"]
    return []

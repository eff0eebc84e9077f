"""Tau-Push indexing scheme (paper §4.3).

The index holds (i) the n-entry DPR vector and (ii) precomputed GBP
columns. In the hierarchy, a query that contains V_j as a child always has
S = the children of V_j's parent, i.e. V_j's siblings, so Algorithm 1
refines V_j exactly when its DPR tau_j exceeds that query's
tau = 1/sqrt(|S| n). The build stores (level, sup) under that same rule,
with |S| the size of sup's sibling set: every stored column is read by the
one query that contains it, and every GBP target of a hierarchy query is
stored. The entry is the aggregated DPPR column over exactly those
siblings, computed with the query's own Eq. (6) rmax_b. Because
|S| <= k, the index stays O(n + k sqrt(k n)).

``nbytes`` feeds Table 10.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fanout import fan_out
from repro.core.gbp import gbp
from repro.core.taupush import membership_arrays, query_tau, taupush_params
from repro.graphs.csr import CSRGraph
from repro.hierarchy.supergraph import Hierarchy
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import dpr_vector_local, supernode_dpr


@dataclass
class TauPushIndex:
    """Precomputed DPR vector + per-target GBP columns over its siblings.

    ``gbp_store[(level, sup)] = (sibling_ids, values)`` with
    ``values[i] = pi_hat_d(sibling_i, sup)``.
    """

    leaf_dpr: np.ndarray
    gbp_store: dict = field(default_factory=dict)
    build_ops: int = 0

    @property
    def nbytes(self) -> int:
        total = int(self.leaf_dpr.nbytes)
        for sids, vals in self.gbp_store.values():
            total += int(sids.nbytes + vals.nbytes)
        return total

    def lookup(
        self, level: int, sup: int, kids: np.ndarray
    ) -> np.ndarray | None:
        """The stored column toward (level, sup), or None when there is no
        entry or its sibling ids are not exactly ``kids``."""
        entry = self.gbp_store.get((level, sup))
        if entry is None or not np.array_equal(entry[0], kids):
            return None
        return entry[1]


def _sibling_tau(g: CSRGraph, h: Hierarchy, level: int) -> np.ndarray | float:
    """Per level-``level`` supernode, the :func:`query_tau` of the query
    over its siblings."""
    if level == h.n_levels:
        n_sibs = h.n_supernodes(level)
    else:
        up = h.parent_labels(level)
        n_sibs = np.bincount(up)[up]
    return query_tau(n_sibs, g.n)


def _gbp_column(g, h, alpha, job: tuple[int, int]):
    """The stored entry for ``job = (level, sup)`` on its own budget: the
    child ids of the query that contains it (its siblings, in that query's
    order), the GBP column toward it over them (with their Eq. (6) rmax_b)
    and the column's ops."""
    level, sup = job
    budget = OpBudget()
    parent = None if level == h.n_levels else int(h.parent_labels(level)[sup])
    sibs, leaf_sets = h.query_children_leafsets(level + 1, parent)
    member, sizes = membership_arrays(g.n, leaf_sets)
    _, _, rmax_b = taupush_params(g, leaf_sets)
    fs = h.leaf_set(level, sup)
    col = gbp(g, fs, member, sizes, rmax_b, alpha, budget=budget)
    return sibs.astype(np.int64), col.astype(np.float64), budget.ops


def build_taupush_index(g: CSRGraph, h: Hierarchy, alpha: float) -> TauPushIndex:
    """Build the Tau-Push index for one graph + hierarchy.

    (level, sup) is stored when its DPR exceeds the tau of the query over
    its siblings, and its column uses that query's ``taupush_params``
    rmax_b, so query-time lookups return exactly what a live GBP inside
    Algorithm 1 would.

    The columns are independent, so ``fanout.fan_out`` computes them in
    ``g``'s forked worker processes (one per usable CPU; each push stays
    single-threaded), with ``(h, alpha)`` pickled to each worker as the
    call's context. The set is forked here unless ``g`` already has one,
    and it stays alive for the queries on ``g`` that fan out. Results are
    stored in job order, so the entries, their order and ``build_ops``
    equal a serial build. ``build_ops`` counts the DPR power iteration's
    arcs and every column's pushes.
    """
    budget = OpBudget()
    leaf_dpr = dpr_vector_local(g, alpha, budget=budget)
    idx = TauPushIndex(leaf_dpr=leaf_dpr)
    jobs = [
        (level, int(sup))
        for level in range(0, h.n_levels + 1)
        for sup in np.flatnonzero(
            supernode_dpr(leaf_dpr, h.leaf_labels[level]) > _sibling_tau(g, h, level)
        )
    ]
    columns = fan_out(_gbp_column, g, jobs, (h, alpha))
    for job, (sibs, col, ops) in zip(jobs, columns):
        budget.charge(ops)
        idx.gbp_store[job] = (sibs, col)
    idx.build_ops = budget.ops
    return idx

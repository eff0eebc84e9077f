"""Tau-Push (paper Algorithm 1): (eps, delta)-approximate level-l DPPR and
PDist for the children of a user-selected supernode S.

Pipeline: tau = 1/sqrt(k n) with k = |S|; rmax per Eq. (5); GFP from each
child V_i; rmax_b per Eq. (6); GBP refinement for every child V_j whose DPR
tau_j exceeds tau (looked up from the precomputed index when available —
paper §4.3: GBP results are part of the index); Eq. (1) conversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.fanout import fork_map
from repro.core.gbp import gbp
from repro.core.gfp import gfp
from repro.core.pdist import pdist_matrix
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import leaf_set_dpr

if TYPE_CHECKING:
    from repro.core.index import TauPushIndex

# A query on a CSRGraph computes its GFP rows in forked worker processes
# (``fork_map``) when its forward-push work bound, sum_i d(V_i) / (alpha
# rmax) over the mean out-degrees d(V_i) of the children, reaches this many
# arcs. Below it the fork does not pay. On a 4-CPU VM, starting and
# joining a 4-worker pool takes 20-38 ms; after the fork the parent takes a
# copy-on-write fault on its first write to each page (about 1,300 faults
# on the Youtube analog, 3,200 on Twitter's, adding 2-7 ms to the next
# small query); and the bound overestimates the ops GFP really pushes by
# 2.7x to 9.9x. With the gate at 1e7 the Youtube root query (bound 4.9e7)
# fanned out, and perfbench's youtube_random p50 rose in 3 of 3 runs (+5%
# to +31%). At 1e8, 0.19% of Youtube random-path queries and 23% of
# Twitter's fan out (k = 25), among them every Twitter hub drill-down
# query with k >= 12.
FANOUT_MIN_ARCS = 100_000_000


@dataclass
class TauPushResult:
    """Output of one Tau-Push query over the k children of S."""

    pdist: np.ndarray  # (k, k) approximate level-l PDist
    dppr: np.ndarray  # (k, k) approximate level-l DPPR
    ops: int  # edge operations consumed
    n_gbp_targets: int  # children refined by GBP
    tau: float
    rmax: float
    rmax_b: float


def membership_arrays(
    n: int, leaf_sets: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(member_label, sizes): leaf -> index within S (or -1), and |F(V_i)|."""
    member = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(len(leaf_sets), dtype=np.int64)
    for i, fs in enumerate(leaf_sets):
        member[fs] = i
        sizes[i] = len(fs)
    return member, sizes


def eps_delta(k: int) -> tuple[float, float]:
    """(eps, delta) for a query over k supernodes: the paper's
    eps = 1 - 1/e and delta = 1/(10k)."""
    return 1.0 - 1.0 / math.e, 1.0 / (10.0 * max(1, k))


def taupush_params(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    *,
    tau: float | None = None,
) -> tuple[float, float, float]:
    """(tau, rmax, rmax_b) per Alg. 1 lines 1-2, 5 (Eqs. 5-6).

    ``tau`` defaults to 1/sqrt(k n) with k = |S|, the rule the index build
    shares; GFP(tau_max) passes max_j tau_j. When no child has an out-arc,
    every DPPR pi_d(s, .) = pi(s, .) d(s) from S is 0, so GBP has nothing
    to refine and rmax_b is infinite (no push).
    """
    if g.m == 0:
        raise ValueError("Tau-Push needs at least one arc: Eq. (5) divides by m")
    eps, delta = eps_delta(len(leaf_sets))
    if tau is None:
        tau = 1.0 / math.sqrt(max(1, len(leaf_sets)) * g.n)
    rmax = eps * delta / (g.m * tau)
    max_avg_deg = max(
        (g.out_deg[fs].mean() for fs in leaf_sets if len(fs)), default=0.0
    )
    rmax_b = eps * delta / max_avg_deg if max_avg_deg > 0 else math.inf
    return tau, rmax, rmax_b


def taupush_query(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    leaf_dpr: np.ndarray,
    alpha: float,
    *,
    budget: OpBudget | None = None,
    index: TauPushIndex | None = None,
    children: tuple[int, np.ndarray] | None = None,
) -> TauPushResult:
    """Run Algorithm 1 for the children of S given by ``leaf_sets``.

    ``leaf_dpr`` is the precomputed DPR vector (the O(n) part of the
    index). ``children = (child_level, kid_ids)`` names the children in
    the hierarchy; a GBP target's column is then read from ``index`` when
    it stores one over all of them (every hierarchy query), and computed
    by a live GBP otherwise.
    """
    taus = leaf_set_dpr(leaf_dpr, leaf_sets)
    params = taupush_params(g, leaf_sets)
    return _push_and_refine(g, leaf_sets, taus, params, alpha, budget, index, children)


def gfp_taumax_query(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    leaf_dpr: np.ndarray,
    alpha: float,
    *,
    budget: OpBudget | None = None,
) -> TauPushResult:
    """The GFP(tau_max) ablation (§7.4): tau = max_j tau_j, GFP only.

    With tau set to the largest child DPR, no child passes the GBP filter
    and Lemma 4.1 makes *every* GFP estimate (eps, delta)-approximate — at
    the cost of a much smaller rmax (more pushes) when some child has a
    large DPR.
    """
    taus = leaf_set_dpr(leaf_dpr, leaf_sets)
    tau_max = float(taus.max()) if len(taus) else 1.0
    tau_max = max(tau_max, 1.0 / max(1, g.n))  # guard degenerate zero
    params = taupush_params(g, leaf_sets, tau=tau_max)
    return _push_and_refine(g, leaf_sets, taus, params, alpha, budget)


def _push_bound(
    g: CSRGraph, leaf_sets: list[np.ndarray], rmax: float, alpha: float
) -> float:
    """Forward-push work bound of a query's GFP rows, in arcs: each push
    from v moves at least alpha d(v) rmax of the d(V_i) seed mass into the
    estimate, so GFP from V_i touches at most d(V_i) / (alpha rmax) arcs."""
    mass = sum(g.out_deg[fs].mean() for fs in leaf_sets if len(fs))
    return mass / (alpha * rmax)


def _gfp_row(g, leaf_sets, member, sizes, rmax, alpha, i: int):
    """GFP from child ``i`` on its own budget: (DPPR row, ops)."""
    budget = OpBudget()
    row, _ = gfp(g, leaf_sets[i], member, sizes, rmax, alpha, budget=budget)
    return row, budget.ops


def _push_and_refine(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    taus: np.ndarray,
    params: tuple[float, float, float],
    alpha: float,
    budget: OpBudget | None,
    index: TauPushIndex | None = None,
    children: tuple[int, np.ndarray] | None = None,
) -> TauPushResult:
    """Alg. 1 lines 3-8: GFP from every child, GBP for children above tau."""
    k = len(leaf_sets)
    budget = budget or OpBudget()
    tau, rmax, rmax_b = params
    member, sizes = membership_arrays(g.n, leaf_sets)

    # the k GFP rows are independent (Lemma A.2); charging their ops in row
    # order raises a limited budget after the same row whether they ran in
    # this process or in forked workers
    shared = (g, leaf_sets, member, sizes, rmax, alpha)
    if isinstance(g, CSRGraph) and _push_bound(g, leaf_sets, rmax, alpha) >= FANOUT_MIN_ARCS:
        rows = fork_map(_gfp_row, range(k), shared)
    else:
        rows = (_gfp_row(*shared, i) for i in range(k))
    dppr = np.zeros((k, k))
    for i, (row, ops) in enumerate(rows):
        budget.charge(ops)
        dppr[i, :] = row

    gbp_targets = np.flatnonzero(taus > tau)
    for j in gbp_targets:
        col = None
        if index is not None and children is not None:
            child_level, kids = children
            col = index.lookup(child_level, int(kids[j]), kids)
        if col is None:
            col = gbp(g, leaf_sets[j], member, sizes, rmax_b, alpha, budget=budget)
        else:
            budget.charge(k)
        dppr[:, j] = col

    return TauPushResult(
        pdist=pdist_matrix(dppr, g.n),
        dppr=dppr,
        ops=budget.ops,
        n_gbp_targets=int(len(gbp_targets)),
        tau=tau,
        rmax=rmax,
        rmax_b=rmax_b,
    )

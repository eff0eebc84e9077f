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

from repro.core.fanout import fan_out
from repro.core.gbp import gbp
from repro.core.gfp import gfp
from repro.core.pdist import pdist_matrix
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget

if TYPE_CHECKING:
    from repro.core.index import TauPushIndex

# A query on a CSRGraph computes its GFP rows in its graph's forked
# workers (``fanout.fan_out``) when its forward-push work bound,
# sum_i d(V_i) / (alpha rmax) over the mean out-degrees d(V_i) of the
# children, reaches this many arcs. Below it the fan-out does not pay.
# Measured on a 4-CPU VM (k = 25): a graph's workers are forked once
# (20-27 ms), by its GBP index build when that fans out (so no query pays
# it), else by its first heavy query. A warm call costs 0.5-0.8 ms for
# 2 jobs and 1.4-2.7 ms for a root's 18-19 jobs, whose context pickles
# to 190 KB (Youtube analog) and 390 KB (Twitter's).
# Timing 90 Youtube random-path queries serially and fanned (best of 3),
# fan-out saved a median 0.4 ms below a bound of 1.2e6 (serial median
# 4.1 ms), 2.3 ms from 1.2e6 to 2e6 (8.6 ms, about perfbench's
# youtube_random p50) and 6.2 ms from 2e6 to 1e7 (15 ms). But the bound
# is no measure of work on tiny graphs: FbEgo (n = 52) reaches 4.9e6
# with sub-millisecond GFP(tau_max) queries. At 1e7, twice that, 19.9%
# of Youtube random-path queries fan out (every root query, bound 4.9e7,
# and 6.6% of the rest) and 70% of Twitter's.
FANOUT_MIN_ARCS = 10_000_000


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


def leaf_set_means(values: np.ndarray, leaf_sets: list[np.ndarray]) -> np.ndarray:
    """Per child V_i, the mean of ``values`` over F(V_i); 0 for an empty set.
    Over the leaf DPR it is tau_i (Eq. (4)), over out-degrees d(V_i)."""
    return np.array([values[fs].mean() if len(fs) else 0.0 for fs in leaf_sets])


def query_tau(n_children: int | np.ndarray, n: int) -> float | np.ndarray:
    """tau = 1/sqrt(|S| n) of the query over ``n_children`` = |S| children
    (Alg. 1 line 1); vectorised over an array of sibling counts."""
    return 1.0 / np.sqrt(np.maximum(n_children, 1) * n)


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

    ``tau`` defaults to :func:`query_tau`, the rule the index build
    shares; GFP(tau_max) passes max_j tau_j. When no child has an out-arc,
    every DPPR pi_d(s, .) = pi(s, .) d(s) from S is 0, so GBP has nothing
    to refine and rmax_b is infinite (no push).
    """
    if g.m == 0:
        raise ValueError("Tau-Push needs at least one arc: Eq. (5) divides by m")
    eps, delta = eps_delta(len(leaf_sets))
    if tau is None:
        tau = query_tau(len(leaf_sets), g.n)
    rmax = eps * delta / (g.m * tau)
    max_avg_deg = max(leaf_set_means(g.out_deg, leaf_sets), default=0.0)
    rmax_b = eps * delta / max_avg_deg if max_avg_deg > 0 else math.inf
    return tau, rmax, rmax_b


def taupush_query(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    leaf_dpr: np.ndarray,
    alpha: float,
    *,
    tau: float | None = None,
    budget: OpBudget | None = None,
    index: TauPushIndex | None = None,
    children: tuple[int, np.ndarray] | None = None,
) -> TauPushResult:
    """Run Algorithm 1 for the children of S given by ``leaf_sets``: GFP
    from every child, then GBP for every child whose tau_j exceeds tau.

    ``leaf_dpr`` is the precomputed DPR vector (the O(n) part of the
    index), and ``tau`` overrides :func:`query_tau` as in
    :func:`taupush_params`. ``children = (child_level, kid_ids)`` names
    the children in the hierarchy; a GBP target's column is then read
    from ``index`` when it stores one over exactly these ids (every
    hierarchy query), and computed by a live GBP otherwise.
    """
    k = len(leaf_sets)
    budget = budget or OpBudget()
    taus = leaf_set_means(leaf_dpr, leaf_sets)
    tau, rmax, rmax_b = taupush_params(g, leaf_sets, tau=tau)
    member, sizes = membership_arrays(g.n, leaf_sets)

    # the k GFP rows are independent (Lemma A.2); charging their ops in row
    # order raises a limited budget after the same row whether they ran in
    # this process or in forked workers
    context = (leaf_sets, member, sizes, rmax, alpha)
    if _push_bound(g, leaf_sets, rmax, alpha) >= FANOUT_MIN_ARCS:
        rows = fan_out(_gfp_row, g, range(k), context)
    else:
        rows = (_gfp_row(g, *context, i) for i in range(k))
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


def gfp_taumax_query(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    leaf_dpr: np.ndarray,
    alpha: float,
    *,
    budget: OpBudget | None = None,
) -> TauPushResult:
    """The GFP(tau_max) ablation (§7.4): Algorithm 1 at tau = max_j tau_j.

    With tau set to the largest child DPR, no child passes the GBP filter
    and Lemma 4.1 makes *every* GFP estimate (eps, delta)-approximate — at
    the cost of a much smaller rmax (more pushes) when some child has a
    large DPR.
    """
    taus = leaf_set_means(leaf_dpr, leaf_sets)
    tau_max = float(taus.max()) if len(taus) else 1.0
    tau_max = max(tau_max, 1.0 / max(1, g.n))  # guard degenerate zero
    return taupush_query(g, leaf_sets, leaf_dpr, alpha, tau=tau_max, budget=budget)


def _push_bound(
    g: CSRGraph, leaf_sets: list[np.ndarray], rmax: float, alpha: float
) -> float:
    """Forward-push work bound of a query's GFP rows, in arcs: each push
    from v moves at least alpha d(v) rmax of the d(V_i) seed mass into the
    estimate, so GFP from V_i touches at most d(V_i) / (alpha rmax) arcs."""
    mass = sum(leaf_set_means(g.out_deg, leaf_sets))
    return mass / (alpha * rmax)


def _gfp_row(g, leaf_sets, member, sizes, rmax, alpha, i: int):
    """GFP from child ``i`` on its own budget: (DPPR row, ops)."""
    budget = OpBudget()
    row, _ = gfp(g, leaf_sets[i], member, sizes, rmax, alpha, budget=budget)
    return row, budget.ops


"""Tau-Push (paper Algorithm 1): (eps, delta)-approximate level-l DPPR and
PDist for the children of a user-selected supernode S.

Pipeline: tau = 1/sqrt(k n); rmax per Eq. (5); GFP from each child V_i;
rmax_b per Eq. (6); GBP refinement for every child V_j whose DPR tau_j
exceeds tau (looked up from the precomputed index when available —
paper §4.3: GBP results are part of the index); Eq. (1) conversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.gbp import gbp
from repro.core.gfp import gfp
from repro.core.pdist import pdist_matrix
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import leaf_set_dpr

if TYPE_CHECKING:
    from repro.core.index import TauPushIndex


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


def eps_delta(
    k: int, eps: float | None = None, delta: float | None = None
) -> tuple[float, float]:
    """(eps, delta) for a query over k supernodes; unset values take the
    paper defaults eps = 1 - 1/e and delta = 1/(10k)."""
    return (
        1.0 - 1.0 / math.e if eps is None else eps,
        1.0 / (10.0 * max(1, k)) if delta is None else delta,
    )


def taupush_params(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    eps: float | None = None,
    delta: float | None = None,
    *,
    tau: float | None = None,
) -> tuple[float, float, float]:
    """(tau, rmax, rmax_b) per Alg. 1 lines 1-2, 5 (Eqs. 5-6).

    ``tau`` defaults to 1/sqrt(k n); GFP(tau_max) passes max_j tau_j. When
    no child has an out-arc, every DPPR pi_d(s, .) = pi(s, .) d(s) from S is
    0, so GBP has nothing to refine and rmax_b is infinite (no push).
    """
    if g.m == 0:
        raise ValueError("Tau-Push needs at least one arc: Eq. (5) divides by m")
    eps, delta = eps_delta(len(leaf_sets), eps, delta)
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
    eps: float | None = None,
    delta: float | None = None,
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
    params = taupush_params(g, leaf_sets, eps, delta)
    return _push_and_refine(g, leaf_sets, taus, params, alpha, budget, index, children)


def gfp_taumax_query(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    leaf_dpr: np.ndarray,
    alpha: float,
    *,
    eps: float | None = None,
    delta: float | None = None,
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
    params = taupush_params(g, leaf_sets, eps, delta, tau=tau_max)
    return _push_and_refine(g, leaf_sets, taus, params, alpha, budget)


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

    dppr = np.zeros((k, k))
    for i, fs in enumerate(leaf_sets):
        dppr[i, :], _ = gfp(g, fs, member, sizes, rmax, alpha, budget=budget)

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

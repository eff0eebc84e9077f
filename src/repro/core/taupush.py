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

import numpy as np

from repro.core.gbp import gbp
from repro.core.gfp import gfp
from repro.core.pdist import pdist_matrix
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget


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


def taupush_params(
    g: CSRGraph, leaf_sets: list[np.ndarray], eps: float, delta: float
) -> tuple[float, float, float]:
    """(tau, rmax, rmax_b) per Alg. 1 lines 1-2, 5 (Eqs. 5-6)."""
    k = max(1, len(leaf_sets))
    tau = 1.0 / math.sqrt(k * g.n)
    rmax = eps * delta / (g.m * tau)
    avg_degs = [g.out_deg[fs].mean() for fs in leaf_sets if len(fs)]
    rmax_b = eps * delta / max(avg_degs) if avg_degs else eps * delta
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
    gbp_index: "dict | None" = None,
    gbp_keys: list | None = None,
) -> TauPushResult:
    """Run Algorithm 1 for the children of S given by ``leaf_sets``.

    ``leaf_dpr`` is the precomputed DPR vector (the O(n) part of the
    index). ``gbp_index`` optionally maps a key — ``gbp_keys[j]`` for
    child j, e.g. the (level, supernode-id) pair used by
    :mod:`repro.core.index` — to sparse GBP results (nodes, vals);
    missing entries fall back to a live GBP run.
    """
    k = len(leaf_sets)
    eps = eps if eps is not None else 1.0 - 1.0 / math.e
    delta = delta if delta is not None else 1.0 / (10.0 * max(1, k))
    budget = budget or OpBudget()
    tau, rmax, rmax_b = taupush_params(g, leaf_sets, eps, delta)
    member, sizes = membership_arrays(g.n, leaf_sets)

    dppr = np.zeros((k, k))
    for i, fs in enumerate(leaf_sets):
        dppr[i, :], _ = gfp(
            g, fs, member, sizes, rmax, alpha, budget=budget
        )

    taus = np.array([leaf_dpr[fs].mean() if len(fs) else 0.0 for fs in leaf_sets])
    gbp_targets = np.flatnonzero(taus > tau)
    for j in gbp_targets:
        fs = leaf_sets[j]
        col = None
        key = gbp_keys[j] if gbp_keys is not None else None
        if gbp_index is not None and key in gbp_index:
            # stored column over the target's siblings (index §4.3): valid
            # exactly when the query's children are those siblings, which
            # is every hierarchy query. Fall back to a live GBP otherwise.
            sids, vals = gbp_index[key]
            stored = dict(zip(sids.tolist(), vals.tolist()))
            kid_ids = [kk[1] for kk in gbp_keys]
            if all(kid in stored for kid in kid_ids):
                col = np.array([stored[kid] for kid in kid_ids])
                budget.charge(k)
        if col is None:
            col = gbp(g, fs, member, sizes, rmax_b, alpha, budget=budget)
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
    eps: float | None = None,
    delta: float | None = None,
    budget: OpBudget | None = None,
) -> TauPushResult:
    """The GFP(tau_max) ablation (§7.4): tau = max_j tau_j, GFP only.

    With tau set to the largest child DPR, Lemma 4.1 makes *every* GFP
    estimate (eps, delta)-approximate, so GBP is skipped entirely — at the
    cost of a much smaller rmax (more pushes) when some child has a large
    DPR.
    """
    k = len(leaf_sets)
    eps = eps if eps is not None else 1.0 - 1.0 / math.e
    delta = delta if delta is not None else 1.0 / (10.0 * max(1, k))
    budget = budget or OpBudget()
    taus = np.array([leaf_dpr[fs].mean() if len(fs) else 0.0 for fs in leaf_sets])
    tau_max = float(taus.max()) if k else 1.0
    tau_max = max(tau_max, 1.0 / max(1, g.n))  # guard degenerate zero
    rmax = eps * delta / (g.m * tau_max)
    member, sizes = membership_arrays(g.n, leaf_sets)
    dppr = np.zeros((k, k))
    for i, fs in enumerate(leaf_sets):
        dppr[i, :], _ = gfp(g, fs, member, sizes, rmax, alpha, budget=budget)
    return TauPushResult(
        pdist=pdist_matrix(dppr, g.n),
        dppr=dppr,
        ops=budget.ops,
        n_gbp_targets=0,
        tau=tau_max,
        rmax=rmax,
        rmax_b=float("nan"),
    )

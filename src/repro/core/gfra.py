"""GFRA (paper Algorithm 4, Appendix A.2) — the grouped-push FORA ablation.

GFRA = GFP (grouped push, one invocation per source supernode) + FORA-style
random-walk refinement of the residue mass. It isolates the benefit of
Tau-Push's *grouped push strategy* without the DPR-guided termination or
the GBP filter-refinement. omega = (r_sum / gamma) * W walks with
gamma = min_i |F(V_i)| (Theorem A.1).
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.gfp import gfp
from repro.core.pdist import pdist_matrix
from repro.core.taupush import TauPushResult, eps_delta, membership_arrays
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.fora import WalkIndex, fora_omega_W, residue_walks


def gfra_query(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    alpha: float,
    *,
    rng: np.random.Generator | None = None,
    budget: OpBudget | None = None,
    walk_index: WalkIndex | None = None,
) -> TauPushResult:
    """All-pair approximate level-l DPPR/PDist in S by GFRA."""
    k = len(leaf_sets)
    eps, delta = eps_delta(k)
    rng = rng or np.random.default_rng(0)
    budget = budget or OpBudget()
    W = fora_omega_W(eps, delta, g.n)
    gamma = max(1, min(len(fs) for fs in leaf_sets)) if k else 1
    avg_deg_sum = sum(g.out_deg[fs].mean() for fs in leaf_sets if len(fs))
    rmax = math.sqrt(max(avg_deg_sum, 1e-12) * gamma / (g.m * W))
    member, sizes = membership_arrays(g.n, leaf_sets)
    dppr = np.zeros((k, k))
    for i, fs in enumerate(leaf_sets):
        est_i, r = gfp(g, fs, member, sizes, rmax, alpha, budget=budget)
        r_sum = float(r.sum())
        if r_sum > 0:
            omega = max(1, int(math.ceil(r_sum / gamma * W)))
            ends = residue_walks(g, r, r_sum, omega, alpha, rng, budget, walk_index)
            lab = member[ends]
            hit = lab >= 0
            np.add.at(
                est_i,
                lab[hit],
                (r_sum / omega) / np.maximum(sizes[lab[hit]], 1),
            )
        dppr[i, :] = est_i
    return TauPushResult(
        pdist=pdist_matrix(dppr, g.n),
        dppr=dppr,
        ops=budget.ops,
        n_gbp_targets=0,
        tau=float("nan"),
        rmax=rmax,
        rmax_b=float("nan"),
    )

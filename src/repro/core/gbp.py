"""Group Backward-Push (GBP, paper Algorithm 3).

GBP refines the DPPR estimate of a *high-DPR target* supernode V_j for all
source supernodes V_i in S by pushing along in-edges from F(V_j): initial
residue 1/|F(V_j)| on the target's leaves, threshold rmax_b, estimate
contribution alpha * d(v_k) * r(v_k) / |F(V_i)| (Alg. 3 line 5) — the
d(v_k) factor converts the Backward-Push pi(s, t) scale into DPPR.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.core.gfp import aggregate_to_supernodes
from repro.pprlib.budget import OpBudget
from repro.pprlib.push import backward_push


def gbp(
    g: CSRGraph,
    target_leaves: np.ndarray,
    member_label: np.ndarray,
    sizes: np.ndarray,
    rmax_b: float,
    alpha: float,
    *,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """One GBP invocation toward V_j (its ``target_leaves``).

    Returns pi_hat(V_i, V_j) for the k supernodes V_i of S. Charges the
    push's arcs plus one op per node with a nonzero estimate (the
    aggregation).
    """
    residue = np.zeros(g.n)
    residue[target_leaves] = 1.0 / max(1, len(target_leaves))  # Alg. 3 line 2
    est, _, _ = backward_push(g, residue, rmax_b, alpha, budget=budget)
    if budget is not None:
        budget.charge(int(np.count_nonzero(est)))
    return aggregate_to_supernodes(est * g.out_deg, member_label, sizes)

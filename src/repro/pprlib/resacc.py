"""ResAcc [47] — index-free single-source DPPR approximation.

ResAcc avoids both indexes and most random walks by *residue accumulation*:
it interleaves Forward-Push phases with power-iteration-style sweeps that
propagate all remaining residue mass one step at a time, terminating when
the total remaining residue guarantees the (eps, delta) bound. This is the
behavioural core of Lin et al.'s method (deterministic graph traversal, no
stored index); the engineering tricks of the original (hub skipping, etc.)
are omitted — see DESIGN.md §5. Asymptotically it remains a per-source
O(m)-per-sweep method, which is what makes it time out from O(n) sources
in Table 8, the property the reproduction must preserve.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.push import forward_push


def resacc_single_source(
    g: CSRGraph,
    source: int,
    alpha: float,
    eps: float,
    delta: float,
    *,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """Single-source DPPR by push + residue-accumulation sweeps.

    The estimate error after any schedule is bounded by the remaining
    residue sum (Eq. (3) with pi_d <= d), so we sweep until
    sum(r) < eps * delta, which guarantees the absolute branch of
    Definition 3.5 for every target.
    """
    budget = budget or OpBudget()
    residue = np.zeros(g.n)
    residue[source] = g.out_deg[source]
    rmax = max(eps * delta / max(1, g.m), 1e-9)
    # phase 1: localized push with a moderate threshold
    est, r, _ = forward_push(g, residue, rmax, alpha, budget=budget)
    # phase 2: accumulation sweeps — propagate *all* remaining residue
    nodes = np.arange(g.n)
    deg = np.maximum(g.out_deg, 1.0)
    target = eps * delta
    while float(r.sum()) > target:
        est += alpha * r
        r, arcs = g.propagate(nodes, (1.0 - alpha) * r / deg)
        budget.charge(arcs)
    return est

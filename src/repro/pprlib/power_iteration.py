"""Exact / near-exact PPR via linear algebra and power iteration (PI [59]).

* :func:`exact_ppr_matrix` — closed-form all-pairs PPR for small graphs
  (the ground truth every approximate kernel is tested against, and the
  single-level PDist source for the quality tables, n <= 1.5K).
* :func:`power_iteration` — the one power-iteration loop; the DPR vector
  (``repro.pprlib.dpr``) starts it from d/m, and
  :func:`ppr_single_source_pi`, the PI competitor, from e_s, iterating
  to absolute error < 1e-9 (paper §3.3, "the precision of float") and
  charging O(m) ops per iteration to the budget.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget


def exact_ppr_matrix(g: CSRGraph, alpha: float) -> np.ndarray:
    """All-pairs PPR: Pi[i, j] = pi(v_i, v_j), via alpha (I-(1-a)P)^{-1}.

    Dense O(n^3) — ground truth for graphs up to a few thousand nodes.
    Rows sum to 1 when the graph has no dangling nodes.
    """
    P = g.transition_matrix()
    A = np.eye(g.n) - (1.0 - alpha) * P
    return alpha * np.linalg.solve(A, np.eye(g.n))


def exact_dppr_matrix(g: CSRGraph, alpha: float) -> np.ndarray:
    """All-pairs DPPR: pi_d(v_i, v_j) = pi(v_i, v_j) * d(v_i) (Def. 3.1)."""
    return exact_ppr_matrix(g, alpha) * g.out_deg[:, None]


def power_iteration(
    g: CSRGraph,
    x0: np.ndarray,
    alpha: float,
    *,
    tol: float,
    max_iter: int = 300,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """pi = alpha * sum_t (1-alpha)^t x_t with x_{t+1} = P^T x_t.

    Stops once the remaining walk mass (1 - alpha)^t drops below ``tol``
    or after ``max_iter`` propagations. Runs on any graph with ``n``,
    ``out_deg`` and ``propagate``; charges the arcs of each propagation.
    """
    budget = budget or OpBudget()
    nodes = np.arange(g.n)
    deg = np.maximum(g.out_deg, 1.0)
    x = x0
    pi = alpha * x
    weight = 1.0
    for _ in range(max_iter):
        if weight < tol:
            break
        x, arcs = g.propagate(nodes, x / deg)
        budget.charge(arcs)
        weight *= 1.0 - alpha
        pi += alpha * weight * x
    return pi


def ppr_single_source_pi(
    g: CSRGraph,
    source: int,
    alpha: float,
    *,
    tol: float = 1e-9,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """The PPR vector pi(source, .) by :func:`power_iteration` from e_s
    (the paper's PI baseline); charges m ops per iteration."""
    x0 = np.zeros(g.n)
    x0[source] = 1.0
    return power_iteration(g, x0, alpha, tol=tol, budget=budget)

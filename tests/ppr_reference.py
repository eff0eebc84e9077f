"""Reference PPR loops: the push, power-iteration and walk-phase copies.

Verbatim copies of ``forward_push``, ``backward_push``,
``ppr_single_source_pi``, ``fora_single_source`` and ``gfra_query`` as
they were before ``repro.pprlib`` kept one body per loop family (one
frontier push loop, one ``power_iteration``, one residue walk phase). The
tests require the production kernels to give the same estimates,
residues, rounds and op counts as these, and the same FORA/FORA+/GFRA
vectors for a seeded ``rng``.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.gfp import gfp
from repro.core.pdist import pdist_matrix
from repro.core.taupush import TauPushResult, membership_arrays
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.fora import WalkIndex
from repro.pprlib.push import random_walks


def fora_omega_W(eps: float, delta: float, p_f: float) -> float:
    """W = (2 + 2 eps/3) * ln(1/p_f) / (eps^2 delta) (Appendix A.2)."""
    return (2.0 + 2.0 * eps / 3.0) * math.log(1.0 / p_f) / (eps * eps * delta)


def forward_push(
    g: CSRGraph,
    residue: np.ndarray,
    rmax: float,
    alpha: float,
    *,
    budget: OpBudget | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Frontier-synchronous Forward-Push.

    Mutates nothing; returns (estimate, final residue, rounds). The
    estimate accumulates alpha * pushed-residue per node (DPPR scale if the
    seed residues are degree-scaled). Charges one op per touched arc.
    """
    budget = budget or OpBudget()
    r = np.asarray(residue, dtype=np.float64).copy()
    est = np.zeros(g.n)
    thresh = g.out_deg * rmax
    # a dangling node (deg 0) sends along no arc, so the clamp only keeps
    # the division finite
    deg = np.maximum(g.out_deg, 1.0)
    rounds = 0
    while True:
        active = np.flatnonzero(r > np.maximum(thresh, 1e-300))
        if len(active) == 0:
            break
        ra = r[active]
        est[active] += alpha * ra
        received, arcs = g.propagate(active, (1.0 - alpha) * ra / deg[active])
        budget.charge(arcs)
        r[active] = 0.0
        r += received
        rounds += 1
    return est, r, rounds


def backward_push(
    g: CSRGraph,
    residue: np.ndarray,
    rmax_b: float,
    alpha: float,
    *,
    budget: OpBudget | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Frontier-synchronous Backward-Push along in-edges.

    Returns (estimate, final residue, rounds); estimate[s] approximates
    pi(s, t) for seed target(s) t. Charges one op per touched arc.
    """
    budget = budget or OpBudget()
    r = np.asarray(residue, dtype=np.float64).copy()
    est = np.zeros(g.n)
    # only nodes with an out-arc receive, so the clamp never changes a sum
    deg = np.maximum(g.out_deg, 1.0)
    rounds = 0
    while True:
        active = np.flatnonzero(r > rmax_b)
        if len(active) == 0:
            break
        ra = r[active]
        est[active] += alpha * ra
        received, arcs = g.propagate(active, (1.0 - alpha) * ra, reverse=True)
        budget.charge(arcs)
        r[active] = 0.0
        r += received / deg
        rounds += 1
    return est, r, rounds


def ppr_single_source_pi(
    g: CSRGraph,
    source: int,
    alpha: float,
    *,
    tol: float = 1e-9,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """Single-source PPR by power iteration (the paper's PI baseline).

    Iterates pi_{t+1} = alpha*e_s + (1-alpha) P^T-propagation of pi_t's
    residual mass until the remaining mass < ``tol``. Charges m ops per
    iteration. Returns the PPR vector pi(source, .).
    """
    budget = budget or OpBudget()
    nodes = np.arange(g.n)
    deg = np.maximum(g.out_deg, 1.0)
    # Propagate the probability mass of the *current step* distribution:
    # pi = alpha * sum_t (1-alpha)^t x_t with x_0 = e_s, x_{t+1} = P^T x_t.
    x = np.zeros(g.n)
    x[source] = 1.0
    pi = np.zeros(g.n)
    weight = 1.0
    while weight > tol:
        pi += alpha * weight * x
        x, arcs = g.propagate(nodes, x / deg)
        weight *= 1.0 - alpha
        budget.charge(arcs)
    return pi


def fora_single_source(
    g: CSRGraph,
    source: int,
    alpha: float,
    eps: float,
    delta: float,
    *,
    p_f: float | None = None,
    rng: np.random.Generator | None = None,
    budget: OpBudget | None = None,
    walk_index: "WalkIndex | None" = None,
) -> np.ndarray:
    """Single-source DPPR by FORA (or FORA+ when ``walk_index`` given)."""
    budget = budget or OpBudget()
    rng = rng or np.random.default_rng(0)
    p_f = p_f or 1.0 / max(2, g.n)
    W = fora_omega_W(eps, delta, p_f)
    d_s = max(1.0, g.out_deg[source])
    rmax = math.sqrt(d_s / (g.m * W))
    residue = np.zeros(g.n)
    residue[source] = g.out_deg[source]
    est, r, _ = forward_push(g, residue, rmax, alpha, budget=budget)
    r_sum = float(r.sum())
    if r_sum <= 0:
        return est
    omega = max(1, int(math.ceil(r_sum * W)))
    probs = r / r_sum
    starts = rng.choice(g.n, size=omega, p=probs)
    if walk_index is not None:
        ends = walk_index.lookup(starts, rng)
        budget.charge(len(starts))  # one op per indexed walk
    else:
        ends = random_walks(g, starts, alpha, rng, budget=budget)
    np.add.at(est, ends, r_sum / omega)
    return est


def gfra_query(
    g: CSRGraph,
    leaf_sets: list[np.ndarray],
    alpha: float,
    *,
    eps: float | None = None,
    delta: float | None = None,
    p_f: float | None = None,
    rng: np.random.Generator | None = None,
    budget: OpBudget | None = None,
    walk_index: WalkIndex | None = None,
    omega_cap: int = 2_000_000,
) -> TauPushResult:
    """All-pair approximate level-l DPPR/PDist in S by GFRA."""
    k = len(leaf_sets)
    eps = 1.0 - 1.0 / math.e if eps is None else eps
    delta = 1.0 / (10.0 * max(1, k)) if delta is None else delta
    p_f = p_f or 1.0 / max(2, g.n)
    rng = rng or np.random.default_rng(0)
    budget = budget or OpBudget()
    W = fora_omega_W(eps, delta, p_f)
    gamma = max(1, min(len(fs) for fs in leaf_sets)) if k else 1
    avg_deg_sum = sum(g.out_deg[fs].mean() for fs in leaf_sets if len(fs))
    rmax = math.sqrt(max(avg_deg_sum, 1e-12) * gamma / (g.m * W))
    member, sizes = membership_arrays(g.n, leaf_sets)
    dppr = np.zeros((k, k))
    for i, fs in enumerate(leaf_sets):
        est_i, r = gfp(g, fs, member, sizes, rmax, alpha, budget=budget)
        r_sum = float(r.sum())
        if r_sum > 0:
            omega = min(omega_cap, max(1, int(math.ceil(r_sum / gamma * W))))
            starts = rng.choice(g.n, size=omega, p=r / r_sum)
            if walk_index is not None:
                ends = walk_index.lookup(starts, rng)
                budget.charge(omega)
            else:
                ends = random_walks(g, starts, alpha, rng, budget=budget)
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

"""FORA [81] and FORA+ [80] single-source DPPR approximation.

FORA's two phases (paper §3.3 / Appendix A.2): Forward-Push with
rmax = sqrt(d(s)/(m W)), then omega = r_sum * W random walks sampled from
the residue distribution to estimate the error term of Eq. (3). With the
initial residue r(s) = d(s) the returned vector is DPPR pi_d(s, .), and it
is an (eps, delta)-approximation w.p. >= 1 - p_f, with p_f = 1/n. GFRA
(``repro.core.gfra``) reuses the walk phase, :func:`residue_walks`.

FORA+ is FORA with the random walks *pre-stored* per node (the walk index
of Table 9/10): at query time a walk is one array lookup instead of
~1/alpha sampled steps.
"""
from __future__ import annotations

import math

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.push import forward_push, random_walks


def fora_omega_W(eps: float, delta: float, n: int) -> float:
    """W = (2 + 2 eps/3) * ln(1/p_f) / (eps^2 delta) (Appendix A.2), with
    the paper's failure probability p_f = 1/n on an n-node graph."""
    p_f = 1.0 / max(2, n)
    return (2.0 + 2.0 * eps / 3.0) * math.log(1.0 / p_f) / (eps * eps * delta)


def residue_walks(
    g: CSRGraph, r: np.ndarray, r_sum: float, omega: int, alpha: float,
    rng: np.random.Generator, budget: OpBudget, walk_index: "WalkIndex | None",
) -> np.ndarray:
    """FORA's walk phase: end nodes of ``omega`` walks whose starts are
    drawn from the residue distribution r / r_sum. Each walk is read from
    ``walk_index`` (one op) when given, else walked live."""
    starts = rng.choice(g.n, size=omega, p=r / r_sum)
    if walk_index is None:
        return random_walks(g, starts, alpha, rng, budget=budget)
    ends = walk_index.lookup(starts, rng)
    budget.charge(omega)
    return ends


def fora_single_source(
    g: CSRGraph,
    source: int,
    alpha: float,
    eps: float,
    delta: float,
    *,
    rng: np.random.Generator | None = None,
    budget: OpBudget | None = None,
    walk_index: "WalkIndex | None" = None,
) -> np.ndarray:
    """Single-source DPPR by FORA (or FORA+ when ``walk_index`` given)."""
    budget = budget or OpBudget()
    rng = rng or np.random.default_rng(0)
    W = fora_omega_W(eps, delta, g.n)
    d_s = max(1.0, g.out_deg[source])
    rmax = math.sqrt(d_s / (g.m * W))
    residue = np.zeros(g.n)
    residue[source] = g.out_deg[source]
    est, r, _ = forward_push(g, residue, rmax, alpha, budget=budget)
    r_sum = float(r.sum())
    if r_sum <= 0:
        return est
    omega = max(1, int(math.ceil(r_sum * W)))
    ends = residue_walks(g, r, r_sum, omega, alpha, rng, budget, walk_index)
    np.add.at(est, ends, r_sum / omega)
    return est


class WalkIndex:
    """Pre-stored random-walk endpoints per node (the FORA/FORA+ index).

    ``walks_per_node[v] = ceil(d(v) * rmax_g * W)`` endpoints are stored
    for each node (rmax_g the global residue threshold), matching the
    FORA+ indexing scheme. ``nbytes`` feeds Table 10.
    """

    def __init__(self, g: CSRGraph, alpha: float, eps: float, delta: float,
                 *, seed: int = 0, per_node_cap: int = 64):
        W = fora_omega_W(eps, delta, g.n)
        rmax_g = math.sqrt(1.0 / (g.m * W))
        rng = np.random.default_rng(seed)
        counts = np.ceil(g.out_deg * rmax_g * W).astype(np.int64)
        counts = np.clip(counts, 1, per_node_cap)
        starts = np.repeat(np.arange(g.n), counts)
        ends = random_walks(g, starts, alpha, rng)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.ends = ends.astype(np.int64)

    def lookup(self, starts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        counts = np.diff(self.indptr)
        c = counts[starts]
        offs = rng.integers(0, np.maximum(c, 1))
        return self.ends[self.indptr[starts] + np.minimum(offs, c - 1)]

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.ends.nbytes)

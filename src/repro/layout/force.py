"""Force-directed baselines: FR [25], LinLog [57], ForceAtlas2 [38].

All three share the vectorized force loop (O(n^2) pairwise repulsion per
iteration, fine for the n <= 1.5K quality graphs) and differ only in their
attraction/repulsion models:

* FR           attraction d^2/k_opt along edges, repulsion k_opt^2/d.
* LinLog       attraction d (linear), repulsion 1/d (log-energy gradient).
* ForceAtlas2  attraction d, repulsion (deg_u+1)(deg_v+1)/d, with the
               characteristic degree-dependent hub repulsion.

Deterministic in ``seed``; temperature annealing caps per-step movement.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph


def _force_loop(
    g: CSRGraph,
    att_fn,
    rep_fn,
    *,
    seed: int = 0,
    n_iter: int = 300,
) -> np.ndarray:
    n = g.n
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2)) - 0.5  # unit-area square
    s, d = g.edge_array()
    und = s < d
    eu, ev = s[und], d[und]
    t0 = 0.1
    for it in range(n_iter):
        diff = X[:, None, :] - X[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        dist = np.maximum(dist, 1e-9)
        rep = rep_fn(dist)  # n x n magnitudes
        disp = (rep / dist)[:, :, None] * diff
        disp = disp.sum(axis=1)
        # attraction along edges
        ed = X[eu] - X[ev]
        edist = np.maximum(np.linalg.norm(ed, axis=1), 1e-9)
        a = att_fn(edist)
        av = (a / edist)[:, None] * ed
        np.add.at(disp, eu, -av)
        np.add.at(disp, ev, av)
        lens = np.maximum(np.linalg.norm(disp, axis=1), 1e-12)
        t = t0 * (1.0 - it / n_iter)
        X = X + disp / lens[:, None] * np.minimum(lens, t)[:, None]
    return X


def fruchterman_reingold(g: CSRGraph, *, seed: int = 0, n_iter: int = 300) -> np.ndarray:
    """FR layout (also the quality-table column 'OpenOrd/FR')."""
    k_opt = np.sqrt(1.0 / max(1, g.n))
    return _force_loop(
        g,
        att_fn=lambda d: d**2 / k_opt,
        rep_fn=lambda dist: k_opt**2 / dist,
        seed=seed,
        n_iter=n_iter,
    )


def linlog(g: CSRGraph, *, seed: int = 0, n_iter: int = 300) -> np.ndarray:
    """LinLog energy layout: linear attraction, logarithmic repulsion."""
    return _force_loop(
        g,
        att_fn=lambda d: d,
        rep_fn=lambda dist: 1.0 / (max(1, g.n) * dist),
        seed=seed,
        n_iter=n_iter,
    )


def forceatlas2(g: CSRGraph, *, seed: int = 0, n_iter: int = 300) -> np.ndarray:
    """ForceAtlas2: degree-weighted repulsion keeps hubs apart."""
    degp1 = g.out_deg + 1.0
    outer = degp1[:, None] * degp1[None, :]
    scale = 1.0 / max(1, g.m)
    return _force_loop(
        g,
        att_fn=lambda d: d,
        rep_fn=lambda dist: scale * outer / dist,
        seed=seed,
        n_iter=n_iter,
    )

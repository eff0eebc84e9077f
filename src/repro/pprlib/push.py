"""Forward-Push [4] and Backward-Push [50] residue kernels.

Frontier-synchronous formulation: every node above its threshold pushes in
the same round. The push invariant (paper Eq. (3)) holds under *any* push
schedule, so batching preserves correctness. Both kernels run one loop,
the only copy of the push rule; they differ only in the threshold, the
arc direction and where the out-degree divides. Each round is one
``g.propagate`` call, and ``g`` is either a
:class:`~repro.graphs.csr.CSRGraph` (expands a small frontier, sweeps the
whole arc list for a large one) or a
:class:`~repro.graphs.spark_graph.SparkGraph` (one Spark superstep). The
residue and estimate vectors stay numpy either way, so both engines run
the same rounds and charge the same ops.

Both kernels work on *residue vectors*, so the grouped variants (GFP/GBP,
paper Alg. 2-3) reuse them by seeding multiple sources/targets at once.
Estimates are returned per node; grouped aggregation to supernodes happens
in ``repro.core``.

Semantics:
* forward: residue r(v) pushes when r(v) > d(v) * rmax; alpha*r(v) goes to
  the estimate of v; (1-alpha)*r(v)/d(v) goes to each out-neighbor. A
  dangling node (d(v) = 0) pushes any positive residue: it keeps
  alpha*r(v) and its (1-alpha)*r(v) leaves the graph, as the alpha-restart
  walk that reaches it stops there.
  With initial residue r(s) = d(s), the estimate converges to DPPR
  pi_d(s, .) = pi(s, .) * d(s).
* backward: residue r(v) pushes when r(v) > rmax_b; alpha*r(v) goes to
  the estimate of v; each in-neighbor u receives (1-alpha)*r(v)/d(u).
  With initial residue r(t) = 1, estimate[s] converges to pi(s, t).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget


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
    # the floor makes a dangling node (threshold 0) push only a positive r
    thresh = np.maximum(g.out_deg * rmax, 1e-300)
    return _push(g, residue, thresh, alpha, budget, reverse=False)


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
    return _push(g, residue, rmax_b, alpha, budget, reverse=True)


def _push(g, residue, thresh, alpha, budget, *, reverse):
    """The push loop of both kernels; ``reverse`` pushes along in-arcs and
    divides the received sums, not the sent values, by the out-degree."""
    budget = budget or OpBudget()
    r = np.asarray(residue, dtype=np.float64).copy()
    est = np.zeros(g.n)
    # a dangling node sends along no arc and receives nothing backward, so
    # the clamp only keeps the division finite
    deg = np.maximum(g.out_deg, 1.0)
    rounds = 0
    while True:
        active = np.flatnonzero(r > thresh)
        if len(active) == 0:
            break
        ra = r[active]
        est[active] += alpha * ra
        sent = (1.0 - alpha) * ra
        if not reverse:
            sent /= deg[active]
        received, arcs = g.propagate(active, sent, reverse=reverse)
        budget.charge(arcs)
        r[active] = 0.0
        r += received / deg if reverse else received
        rounds += 1
    return est, r, rounds


def random_walks(
    g: CSRGraph,
    starts: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    *,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """Terminal nodes of alpha-restart random walks from ``starts`` (batched).

    Each walk terminates at its current node with probability alpha per
    step (the RWR of §3.1); walks from dangling nodes stop in place. Runs
    until every walk has stopped, so no walk is cut short. Charges one op
    per walk step.
    """
    budget = budget or OpBudget()
    cur = np.asarray(starts, dtype=np.int64).copy()
    done = np.zeros(len(cur), dtype=bool)
    while True:
        alive = np.flatnonzero(~done)
        if len(alive) == 0:
            break
        budget.charge(len(alive))
        stop = rng.random(len(alive)) < alpha
        done[alive[stop]] = True
        walk = alive[~stop]
        if len(walk) == 0:
            continue
        c = cur[walk]
        deg = g.out_deg[c].astype(np.int64)
        stuck = deg == 0
        done[walk[stuck]] = True
        mv = walk[~stuck]
        if len(mv) == 0:
            continue
        c = cur[mv]
        offs = rng.integers(0, g.out_deg[c].astype(np.int64))
        cur[mv] = g.indices[g.indptr[c] + offs]
    return cur

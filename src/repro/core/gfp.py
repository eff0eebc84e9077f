"""Group Forward-Push (GFP, paper Algorithm 2).

GFP runs Forward-Push *once per source supernode* instead of once per leaf:
the initial residue spreads d(v)/|F(V_i)| over every leaf of the source
supernode, and the per-node alpha-accumulated estimates are averaged into
target supernodes (dividing by |F(V_j)|), matching Alg. 2 lines 2 and 5 by
linearity of the push invariant (Lemma A.2).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.push import forward_push


def gfp_residue_init(g: CSRGraph, leaf_set: np.ndarray) -> np.ndarray:
    """Alg. 2 line 2: r(V_i, v) = d(v)/|F(V_i)| on the source's leaves."""
    r = np.zeros(g.n)
    r[leaf_set] = g.out_deg[leaf_set] / max(1, len(leaf_set))
    return r


def aggregate_to_supernodes(
    est_nodes: np.ndarray,
    member_label: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Average per-node estimates into the k supernodes of S.

    ``member_label[v]`` is the index of v's supernode within S, or -1 for
    leaves outside S (those estimates are discarded — the pruning Tau-Push
    exists for).
    """
    inside = member_label >= 0
    k = len(sizes)
    out = np.zeros(k)
    np.add.at(out, member_label[inside], est_nodes[inside])
    return out / np.maximum(sizes, 1)


def gfp(
    g: CSRGraph,
    source_leaves: np.ndarray,
    member_label: np.ndarray,
    sizes: np.ndarray,
    rmax: float,
    alpha: float,
    *,
    budget: OpBudget | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One GFP invocation from supernode V_i (its ``source_leaves``).

    Returns (pi_hat over the k supernodes of S, final residue vector).
    The residue vector feeds GFRA's random-walk refinement.
    """
    residue = gfp_residue_init(g, source_leaves)
    est_nodes, r, _ = forward_push(g, residue, rmax, alpha, budget=budget)
    return aggregate_to_supernodes(est_nodes, member_label, sizes), r

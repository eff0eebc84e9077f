"""Stress-family baselines: CMDS [28] and PMDS [15].

* CMDS — classical multidimensional scaling of the all-pairs shortest
  distance matrix: double-center B = -1/2 J D^2 J, take the top-2
  eigenpairs (:func:`repro.layout.stress.classical_scaling`, the same
  routine that initializes stress majorization). The paper's CMDS column
  is the stress method initialized this way; the classical-scaling
  positions are the standard implementation.
* PMDS — pivot MDS: BFS only from p pivots, double-center the n x p
  squared-distance matrix, positions = C V with V the top-2 eigenvectors
  of C^T C. Degree-1 non-pivots attached to the same pivot collapse to the
  same position — the overlap degeneracy the paper reports (infinite ND).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.layout.bfs import apsp
from repro.layout.stress import classical_scaling


def cmds(g: CSRGraph, *, seed: int = 0) -> np.ndarray:
    """Classical MDS layout over shortest-path distances."""
    return classical_scaling(apsp(g))


def pmds(g: CSRGraph, *, n_pivots: int = 50, seed: int = 0) -> np.ndarray:
    """Pivot MDS layout (Brandes & Pich)."""
    rng = np.random.default_rng(seed)
    p = min(n_pivots, g.n)
    pivots = rng.choice(g.n, size=p, replace=False)
    D = apsp(g, sources=pivots).T  # n x p
    D2 = D**2
    C = -0.5 * (
        D2
        - D2.mean(axis=0, keepdims=True)
        - D2.mean(axis=1, keepdims=True)
        + D2.mean()
    )
    M = C.T @ C
    vals, vecs = np.linalg.eigh(M)
    idx = np.argsort(vals)[::-1][:2]
    V = vecs[:, idx]
    X = C @ V
    # scale like CMDS (unit eigen-norm)
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0] = 1.0
    return X / norms * np.sqrt(np.clip(vals[idx], 0.0, None))

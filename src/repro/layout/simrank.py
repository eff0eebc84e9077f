"""SimRank [39] and the SimRank-based distance baseline of §3.1.

S(a, b) = C / (|I(a)||I(b)|) * sum over in-neighbor pairs of S, S(a,a)=1.
Computed by the standard dense iteration S <- C * W^T S W with the diagonal
reset to 1 (W = column-normalized in-adjacency); n <= 1.5K here. The
distance plugs the (already symmetric) SimRank score into Eq. (1) in place
of the symmetrized DPPR — node pairs in different components get score 0
and hence the maximal distance 2 ln n, which is what distorts the
2-cliques in the paper's Fig. 2(c).
"""
from __future__ import annotations

import numpy as np

from repro.core.pdist import pdist_from_dppr
from repro.graphs.csr import CSRGraph
from repro.layout.embedding import adjacency

C = 0.8  # SimRank decay factor


def simrank_matrix(g: CSRGraph, *, n_iter: int = 12) -> np.ndarray:
    """Dense SimRank scores with decay ``C``."""
    A = adjacency(g)
    indeg = A.sum(axis=0)
    W = A / np.maximum(indeg[None, :], 1e-12)
    S = np.eye(g.n)
    for _ in range(n_iter):
        S = C * (W.T @ S @ W)
        np.fill_diagonal(S, 1.0)
    return S


def simrank_pdist(g: CSRGraph) -> np.ndarray:
    """SimRank-based distance matrix (plug SimRank into Eq. (1))."""
    S = simrank_matrix(g)
    D = pdist_from_dppr(S, g.n)
    np.fill_diagonal(D, 0.0)
    return D

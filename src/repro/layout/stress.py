"""Stress majorization (paper Eq. (7)-(10), Appendix A.1; Gansner et al.).

Minimizes sum_{i<j} (1 - ||X_i - X_j|| / D_ij)^2 by iterating
X <- (L^w)^+ L^Y Y, where L^w is the Laplacian weighted by 1/D_ij^2 and
L^Y re-weights by the current geometry. O(k^3) per pinv (done once) and
O(k^2) per iteration — k <= 100 in multi-level use, <= ~1.5K single-level.
The initial layout is :func:`classical_scaling` of D, which is also the
CMDS baseline (``repro.layout.mds.cmds``).
"""
from __future__ import annotations

import numpy as np

TOL = 1e-7  # relative stress change that ends the iteration


def _distances(X: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of X."""
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt((diff**2).sum(-1))


def _constrained_pairs(D: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The i<j pairs with D_ij > 0, and their D_ij."""
    iu = np.triu_indices(len(D), k=1)
    delta = D[iu]
    mask = delta > 0
    return (iu[0][mask], iu[1][mask]), delta[mask]


def _loss(dist: np.ndarray, pairs, delta: np.ndarray) -> float:
    return float(((1.0 - dist[pairs] / delta) ** 2).sum())


def stress_loss(X: np.ndarray, D: np.ndarray) -> float:
    """Eq. (7) normalized stress over i<j pairs with D_ij > 0."""
    return _loss(_distances(X), *_constrained_pairs(D))


def classical_scaling(D: np.ndarray) -> np.ndarray:
    """Classical MDS of a distance matrix: the top-2 eigenpairs of the
    double-centred B = -1/2 J D^2 J, scaled to k x 2 positions."""
    k = len(D)
    J = np.eye(k) - np.ones((k, k)) / k
    B = -0.5 * J @ D**2 @ J
    vals, vecs = np.linalg.eigh((B + B.T) / 2)
    idx = np.argsort(vals)[::-1][:2]
    lam = np.clip(vals[idx], 0.0, None)
    return vecs[:, idx] * np.sqrt(lam)[None, :]


def stress_majorization(
    D: np.ndarray,
    *,
    seed: int = 0,
    max_iter: int = 200,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Embed a symmetric distance matrix D (zero diagonal) into R^2.

    Returns the k x 2 position matrix. Deterministic in ``seed`` (random
    init unless ``init`` given). Entries with D_ij <= 0 off-diagonal are
    treated as "no constraint" (weight 0). Iteration stops once the stress
    changes by at most ``TOL`` relative to its previous value.
    """
    D = np.asarray(D, dtype=np.float64)
    k = len(D)
    if k == 1:
        return np.zeros((1, 2))
    rng = np.random.default_rng(seed)
    if init is not None:
        X = init.copy()
    else:
        # classical scaling puts majorization in the right basin; a tiny
        # seeded jitter breaks ties so distinct seeds explore distinct optima.
        X = classical_scaling(D)
        X = X + rng.normal(scale=1e-3 * (1.0 + np.abs(X).max()), size=X.shape)
    with np.errstate(divide="ignore"):
        w = np.where((D > 0) & ~np.eye(k, dtype=bool), 1.0 / np.maximum(D, 1e-12) ** 2, 0.0)
    Lw = -w.copy()
    np.fill_diagonal(Lw, w.sum(axis=1))
    # pseudo-inverse once; Lw is singular (constant vector in null space)
    Lw_pinv = np.linalg.pinv(Lw)
    inv_wd = np.where(w > 0, 1.0 / np.maximum(D, 1e-12), 0.0)  # 1/(D_ij)
    pairs, delta = _constrained_pairs(D)
    # one distance matrix per iterate: its loss, then the next L^Y
    dist = _distances(X)
    prev = _loss(dist, pairs, delta)
    for _ in range(max_iter):
        np.fill_diagonal(dist, 1.0)
        LY = np.where(dist > 1e-12, -inv_wd / dist, 0.0)
        np.fill_diagonal(LY, 0.0)
        np.fill_diagonal(LY, -LY.sum(axis=1))
        X = Lw_pinv @ (LY @ X)
        dist = _distances(X)
        cur = _loss(dist, pairs, delta)
        if abs(prev - cur) <= TOL * max(prev, 1e-12):
            break
        prev = cur
    return X

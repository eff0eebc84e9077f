"""Reference stress majorization: the loop before it reused distances.

Verbatim copies of ``stress_loss`` and ``stress_majorization`` as they
were when every iteration computed the distance matrix twice (once for
L^Y, once inside ``stress_loss`` for the convergence check) and
``stress_loss`` rebuilt ``np.triu_indices`` and the ``D > 0`` mask on each
call. The tests require the production loop to return bit-identical
positions.
"""
from __future__ import annotations

import numpy as np


def stress_loss(X: np.ndarray, D: np.ndarray) -> float:
    """Eq. (7) normalized stress over i<j pairs with D_ij > 0."""
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    iu = np.triu_indices(len(X), k=1)
    d, delta = dist[iu], D[iu]
    mask = delta > 0
    return float(((1.0 - d[mask] / delta[mask]) ** 2).sum())


def stress_majorization(
    D: np.ndarray,
    *,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-7,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Embed a symmetric distance matrix D (zero diagonal) into R^2.

    Returns the k x 2 position matrix. Deterministic in ``seed`` (random
    init unless ``init`` given). Entries with D_ij <= 0 off-diagonal are
    treated as "no constraint" (weight 0).
    """
    D = np.asarray(D, dtype=np.float64)
    k = len(D)
    if k == 1:
        return np.zeros((1, 2))
    rng = np.random.default_rng(seed)
    if init is not None:
        X = init.copy()
    else:
        # classical-MDS initialization (double-centered D^2, top-2 eigpairs)
        # puts majorization in the right basin; a tiny seeded jitter breaks
        # ties so distinct seeds explore distinct optima.
        D2 = D**2
        J = np.eye(k) - np.ones((k, k)) / k
        B = -0.5 * J @ D2 @ J
        vals, vecs = np.linalg.eigh((B + B.T) / 2)
        idx = np.argsort(vals)[::-1][:2]
        lam = np.clip(vals[idx], 0.0, None)
        X = vecs[:, idx] * np.sqrt(lam)[None, :]
        X = X + rng.normal(scale=1e-3 * (1.0 + np.abs(X).max()), size=X.shape)
    with np.errstate(divide="ignore"):
        w = np.where((D > 0) & ~np.eye(k, dtype=bool), 1.0 / np.maximum(D, 1e-12) ** 2, 0.0)
    Lw = -w.copy()
    np.fill_diagonal(Lw, w.sum(axis=1))
    # pseudo-inverse once; Lw is singular (constant vector in null space)
    Lw_pinv = np.linalg.pinv(Lw)
    inv_wd = np.where(w > 0, 1.0 / np.maximum(D, 1e-12), 0.0)  # 1/(D_ij)
    prev = stress_loss(X, D)
    for _ in range(max_iter):
        diff = X[:, None, :] - X[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, 1.0)
        LY = np.where(dist > 1e-12, -inv_wd / dist, 0.0)
        np.fill_diagonal(LY, 0.0)
        np.fill_diagonal(LY, -LY.sum(axis=1))
        X = Lw_pinv @ (LY @ X)
        cur = stress_loss(X, D)
        if abs(prev - cur) <= tol * max(prev, 1e-12):
            break
        prev = cur
    return X

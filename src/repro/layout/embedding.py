"""Graph-embedding baselines used as layouts (dimension 2, §7.1):
GFactor [3], SDNE [77], LapEig [9], LLE [64], Node2vec [31].

SDNE and Node2vec are numpy re-implementations (no torch/gensim offline,
DESIGN.md §5.3): SDNE-lite is a one-hidden-layer autoencoder over
adjacency rows with the beta-weighting of nonzero entries plus the
first-order Laplacian term; Node2vec-lite runs uniform first-order walks
(p = q = 1) and a skip-gram with negative sampling trained by vectorized
SGD. Their hyperparameters are fixed (DESIGN.md rows 13-14). Both keep the
defining objective family — embeddings optimized for reconstruction /
co-occurrence, not for visual aesthetics, which is the failure mode the
paper's Tables 4-5 report for this category.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp's argument is capped at 700 so it cannot
    overflow (e^709 is the float64 limit)."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 700.0)))


def adjacency(g: CSRGraph) -> np.ndarray:
    """Dense 0/1 adjacency: A[u, v] = 1 for every arc u -> v."""
    A = np.zeros((g.n, g.n))
    s, d = g.edge_array()
    A[s, d] = 1.0
    return A


def gfactor(g: CSRGraph, *, seed: int = 0, n_iter: int = 200) -> np.ndarray:
    """Graph factorization: min sum_(i,j) (A_ij - <x_i, x_j>)^2 + lam |x|^2."""
    lam, lr = 1e-2, 0.05
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=0.1, size=(g.n, 2))
    s, d = g.edge_array()
    for _ in range(n_iter):
        err = (X[s] * X[d]).sum(1) - 1.0  # A_ij = 1 on edges
        grad = np.zeros_like(X)
        np.add.at(grad, s, err[:, None] * X[d])
        np.add.at(grad, d, err[:, None] * X[s])
        grad += lam * X
        X -= lr * grad / max(1.0, np.abs(grad).max())
    return X


def lap_eig(g: CSRGraph, *, seed: int = 0) -> np.ndarray:
    """Laplacian eigenmaps: bottom nontrivial eigvecs of the normalized L."""
    A = adjacency(g)
    A = np.maximum(A, A.T)
    deg = A.sum(1)
    dinv = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    Ln = np.eye(g.n) - dinv[:, None] * A * dinv[None, :]
    vals, vecs = np.linalg.eigh((Ln + Ln.T) / 2)
    idx = np.argsort(vals)[1:3]  # skip the trivial 0 eigenpair
    return (vecs[:, idx] * dinv[:, None])


def lle(g: CSRGraph, *, seed: int = 0) -> np.ndarray:
    """Graph LLE: reconstruct each node from its neighbors (row-normalized
    adjacency W), embed with the bottom nontrivial eigvecs of (I-W)^T(I-W)."""
    A = adjacency(g)
    A = np.maximum(A, A.T)
    rs = A.sum(1, keepdims=True)
    W = A / np.maximum(rs, 1e-12)
    M = (np.eye(g.n) - W).T @ (np.eye(g.n) - W)
    vals, vecs = np.linalg.eigh((M + M.T) / 2)
    idx = np.argsort(vals)[1:3]
    return vecs[:, idx]


def sdne_lite(
    g: CSRGraph,
    *,
    seed: int = 0,
    n_iter: int = 60,
) -> np.ndarray:
    """SDNE-lite: 1-hidden-layer autoencoder A -> h -> y(2) -> A_hat.

    Loss = ||(A_hat - A) * B||^2 (B = beta on edges, the second-order
    term) + alpha1 * sum_(i,j in E) ||y_i - y_j||^2 (first-order term).
    Trained full-batch with momentum SGD; positions are the 2-d code y.
    """
    hidden, beta, alpha1, lr = 32, 5.0, 0.2, 0.01
    rng = np.random.default_rng(seed)
    A = adjacency(g)
    A = np.maximum(A, A.T)
    n = g.n
    B = np.where(A > 0, beta, 1.0)
    W1 = rng.normal(scale=np.sqrt(1.0 / n), size=(n, hidden))
    W2 = rng.normal(scale=np.sqrt(1.0 / hidden), size=(hidden, 2))
    W3 = rng.normal(scale=np.sqrt(1.0 / 2), size=(2, hidden))
    W4 = rng.normal(scale=np.sqrt(1.0 / hidden), size=(hidden, n))
    s, d = g.edge_array()
    vel = [np.zeros_like(w) for w in (W1, W2, W3, W4)]
    for _ in range(n_iter):
        H1 = np.tanh(A @ W1)
        Y = H1 @ W2  # 2-d code (linear)
        H2 = np.tanh(Y @ W3)
        Ah = H2 @ W4
        # second-order gradient
        G = 2.0 * (Ah - A) * B / n
        gW4 = H2.T @ G
        dH2 = (G @ W4.T) * (1 - H2**2)
        gW3 = Y.T @ dH2
        dY = dH2 @ W3.T
        # first-order (Laplacian) gradient on the code
        dY1 = np.zeros_like(Y)
        diffs = Y[s] - Y[d]
        np.add.at(dY1, s, diffs)
        np.add.at(dY1, d, -diffs)
        dY = dY + 2.0 * alpha1 * dY1 / max(1, g.m)
        gW2 = H1.T @ dY
        dH1 = (dY @ W2.T) * (1 - H1**2)
        gW1 = A.T @ dH1
        for w, gr, v in zip((W1, W2, W3, W4), (gW1, gW2, gW3, gW4), vel):
            v *= 0.9
            v -= lr * gr / max(1.0, np.abs(gr).max())
            w += v
    H1 = np.tanh(A @ W1)
    return H1 @ W2


def node2vec_lite(
    g: CSRGraph,
    *,
    seed: int = 0,
    num_walks: int = 6,
    epochs: int = 2,
) -> np.ndarray:
    """Node2vec-lite: uniform 1st-order walks + SGNS trained by batched SGD.

    (p = q = 1, the DeepWalk special case the reference implementation
    defaults to.) Embedding dimension 2, used directly as positions.
    """
    walk_len, window, n_neg, lr = 30, 4, 2, 0.05
    rng = np.random.default_rng(seed)
    n = g.n
    deg = g.out_deg.astype(np.int64)
    # walks
    starts = np.tile(np.arange(n), num_walks)
    walks = np.empty((len(starts), walk_len), dtype=np.int64)
    cur = starts.copy()
    walks[:, 0] = cur
    for t in range(1, walk_len):
        dd = deg[cur]
        offs = rng.integers(0, np.maximum(dd, 1))
        nxt = g.indices[g.indptr[cur] + np.minimum(offs, np.maximum(dd - 1, 0))]
        cur = np.where(dd > 0, nxt, cur)
        walks[:, t] = cur
    # skip-gram pairs
    centers, contexts = [], []
    for w in range(1, window + 1):
        centers.append(walks[:, :-w].ravel())
        contexts.append(walks[:, w:].ravel())
    centers = np.concatenate(centers)
    contexts = np.concatenate(contexts)
    emb = rng.normal(scale=0.1, size=(n, 2))
    ctx = rng.normal(scale=0.1, size=(n, 2))
    for _ in range(epochs):
        perm = rng.permutation(len(centers))
        for lo in range(0, len(perm), 8192):
            b = perm[lo : lo + 8192]
            c, o = centers[b], contexts[b]
            score = _sigmoid((emb[c] * ctx[o]).sum(1))
            coef = (score - 1.0)[:, None]
            ge = coef * ctx[o]
            go = coef * emb[c]
            neg = rng.integers(0, n, size=(len(b), n_neg))
            for t in range(n_neg):
                nt = neg[:, t]
                sneg = _sigmoid((emb[c] * ctx[nt]).sum(1))
                ge += sneg[:, None] * ctx[nt]
                np.add.at(ctx, nt, -lr * sneg[:, None] * emb[c])
            np.add.at(emb, c, -lr * ge)
            np.add.at(ctx, o, -lr * go)
    return emb

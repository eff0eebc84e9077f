"""Louvain+ — size-constrained modularity clustering (paper Appendix A.1).

One *level* of Louvain+ partitions a weighted undirected graph into
communities of at most ``k`` members. Deviations from vanilla Louvain, per
the paper:

* a node whose only neighbor community is ``T`` merges into ``T`` outright;
* otherwise it moves to the neighbor community with the largest modularity
  gain, but only if the receiving community stays within ``k`` members;
* to guarantee the hierarchy keeps coarsening (vanilla Louvain stalls once
  no move has positive gain, leaving "too many communities at the highest
  level" — the paper's defect (i)), a stalled pass force-merges the
  smallest communities into their best neighbor community under the cap.

The graph is given as a weighted edge list; "member count" at each level is
the number of *direct children* (reset to 1 per node at every level), which
is what bounds the children of each supernode by ``k``.
"""
from __future__ import annotations

import numpy as np


def modularity(labels: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """Newman modularity Q of a partition of a weighted undirected graph.

    ``(a, b, w)`` are unique undirected edges (a<=b). Self-loops (a==b)
    count once toward internal weight with full weight.
    """
    labels = np.asarray(labels)
    m_w = float(w.sum())
    if m_w == 0:
        return 0.0
    deg = np.zeros(len(labels))
    np.add.at(deg, a, w)
    np.add.at(deg, b, w)  # a self-loop contributes 2w to strength, as standard
    comm_deg = np.zeros(int(labels.max()) + 1)
    np.add.at(comm_deg, labels, deg)
    internal = float(w[labels[a] == labels[b]].sum())
    return internal / m_w - float(((comm_deg / (2.0 * m_w)) ** 2).sum())


def louvain_plus_level(
    a: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
    n: int,
    k: int,
    *,
    seed: int = 0,
    max_passes: int = 10,
) -> np.ndarray:
    """One Louvain+ coarsening level.

    Parameters: unique undirected weighted edges ``(a, b, w)`` with
    ``a <= b`` over ``n`` nodes; cap ``k``. Returns a compacted label array
    of length ``n`` (labels ``0..n_comm-1``). Every community has at most
    ``k`` members (the cap is hard), and ``n_comm < n`` whenever ``n > 1``
    and ``k >= 2``.
    """
    rng = np.random.default_rng(seed)
    loop = a == b
    # Strengths, summed edge by edge in input order; a self-loop adds 2w.
    ends = np.column_stack([a, b]).ravel()
    halves = np.column_stack([np.where(loop, 2.0 * w, w), np.where(loop, 0.0, w)])
    deg_arr = np.bincount(ends, weights=halves.ravel(), minlength=n)
    m2 = float(deg_arr.sum())  # = 2 * total weight
    if m2 == 0:
        m2 = 1.0
    # Adjacency without self-loops: both directions, sorted by (node, neighbour).
    off = ~loop
    src = np.concatenate([a[off], b[off]])
    dst = np.concatenate([b[off], a[off]])
    by_node = np.lexsort((dst, src))
    nbr = dst[by_node].tolist()
    nbr_w = np.concatenate([w[off], w[off]])[by_node].tolist()
    ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]).tolist()
    adj = [
        (nbr[ptr[x] : ptr[x + 1]], nbr_w[ptr[x] : ptr[x + 1]]) for x in range(n)
    ]
    # The per-node state is Python lists: the move loop reads it one scalar
    # at a time, which is several times faster on lists than on numpy
    # arrays. Neighbours are visited in ascending id because the visit
    # order decides ties between equal gains (the first maximum wins), and
    # ascending id is the order in which edges sorted by (a, b), as
    # build_hierarchy and contract pass them, first mention each neighbour.
    deg = deg_arr.tolist()
    labels = list(range(n))
    comm_deg = list(deg)
    comm_size = [1] * n

    def best_move(node: int, force: bool) -> int:
        """Best target community for ``node`` (or -1). ``force`` ignores
        the positive-gain requirement (used to break stalls)."""
        c0 = labels[node]
        # weights to neighbor communities
        wc: dict[int, float] = {}
        for nb, ww in zip(*adj[node]):
            cn = labels[nb]
            wc[cn] = wc.get(cn, 0.0) + ww
        w_own = wc.pop(c0, 0.0)
        if not wc:
            return -1
        if len(wc) == 1 and w_own == 0.0:
            # paper rule (i): T is the node's *only* neighbor community
            # (no ties into its own) -> merge outright
            (tgt, _), = wc.items()
            if comm_size[tgt] + 1 <= k:
                return tgt
            return -1
        d = deg[node]
        base = w_own - d * (comm_deg[c0] - d) / m2
        best, best_gain = -1, 0.0 if not force else -np.inf
        for tgt, wt in wc.items():
            if comm_size[tgt] + 1 > k:
                continue
            gain = (wt - d * comm_deg[tgt] / m2) - base
            if gain > best_gain:
                best, best_gain = tgt, gain
        return best

    def apply_move(node: int, tgt: int) -> None:
        c0 = labels[node]
        comm_deg[c0] -= deg[node]
        comm_size[c0] -= 1
        labels[node] = tgt
        comm_deg[tgt] += deg[node]
        comm_size[tgt] += 1

    order = rng.permutation(n).tolist()
    for _ in range(max_passes):
        moved = 0
        for node in order:
            if comm_size[labels[node]] > 1 and not adj[node][0]:
                continue
            tgt = best_move(node, force=False)
            if tgt >= 0 and tgt != labels[node]:
                apply_move(node, tgt)
                moved += 1
        if moved == 0:
            break

    if len(set(labels)) == n and n > 1:
        # Stalled: force-merge singletons into best neighbor community
        # (or pair up isolated nodes) so the hierarchy keeps coarsening.
        # Nodes only ever leave singleton communities here, so the lowest
        # singleton id only grows: one forward scan finds every pick.
        def next_singleton(x: int) -> int:
            while x < n and comm_size[labels[x]] != 1:
                x += 1
            return x

        low = 0  # no node below ``low`` is still a singleton
        for node in order:
            if comm_size[labels[node]] != 1:
                continue
            tgt = best_move(node, force=True)
            if tgt < 0:
                # no connected option under the cap: pair with the lowest
                # other singleton (disconnected components end up grouped).
                low = next_singleton(low)
                other = low if low != node else next_singleton(low + 1)
                if other == n:
                    continue
                tgt = labels[other]
            apply_move(node, tgt)

    # compact labels
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)


def contract(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Contract a weighted undirected edge list by a label array.

    Returns unique (a', b', w') with a'<=b' (self-loops kept: they carry
    the intra-community weight forward) and the new node count.
    """
    la, lb = labels[a], labels[b]
    lo, hi = np.minimum(la, lb), np.maximum(la, lb)
    n_new = int(labels.max()) + 1 if len(labels) else 0
    key = lo.astype(np.int64) * n_new + hi
    uniq, inv = np.unique(key, return_inverse=True)
    w_new = np.zeros(len(uniq))
    np.add.at(w_new, inv, w)
    return (uniq // n_new).astype(np.int64), (uniq % n_new).astype(np.int64), w_new, n_new

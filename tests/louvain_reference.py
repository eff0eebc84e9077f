"""Reference Louvain+ level: the list-free, dict-per-node implementation.

A verbatim copy of ``repro.hierarchy.louvain.louvain_plus_level`` as it was
before the level was rewritten over Python lists with a numpy-built
adjacency. The tests require the production level to give the same labels
as this one, so the hierarchy (and every op count derived from it) is
unchanged by that rewrite.
"""
from __future__ import annotations

import numpy as np


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
    of length ``n`` (labels ``0..n_comm-1``); guaranteed ``n_comm < n``
    whenever ``n > 1`` and ``k >= 2``, and every community has at most
    ``k`` members (except a community can exceed nothing — the cap is
    hard).
    """
    rng = np.random.default_rng(seed)
    # adjacency dicts excluding self-loops
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    deg = np.zeros(n)
    for x, y, ww in zip(a.tolist(), b.tolist(), w.tolist()):
        if x == y:
            deg[x] += 2.0 * ww
            continue
        adj[x][y] = adj[x].get(y, 0.0) + ww
        adj[y][x] = adj[y].get(x, 0.0) + ww
        deg[x] += ww
        deg[y] += ww
    m2 = float(deg.sum())  # = 2 * total weight
    if m2 == 0:
        m2 = 1.0
    labels = np.arange(n)
    comm_deg = deg.copy()
    comm_size = np.ones(n, dtype=np.int64)

    def best_move(node: int, force: bool) -> int:
        """Best target community for ``node`` (or -1). ``force`` ignores
        the positive-gain requirement (used to break stalls)."""
        c0 = labels[node]
        # weights to neighbor communities
        wc: dict[int, float] = {}
        for nb, ww in adj[node].items():
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
                return int(tgt)
            return -1
        base = w_own - deg[node] * (comm_deg[c0] - deg[node]) / m2
        best, best_gain = -1, 0.0 if not force else -np.inf
        for tgt, wt in wc.items():
            if comm_size[tgt] + 1 > k:
                continue
            gain = (wt - deg[node] * comm_deg[tgt] / m2) - base
            if gain > best_gain:
                best, best_gain = int(tgt), gain
        return best

    def apply_move(node: int, tgt: int) -> None:
        c0 = labels[node]
        comm_deg[c0] -= deg[node]
        comm_size[c0] -= 1
        labels[node] = tgt
        comm_deg[tgt] += deg[node]
        comm_size[tgt] += 1

    order = rng.permutation(n)
    for _ in range(max_passes):
        moved = 0
        for node in order:
            if comm_size[labels[node]] > 1 and len(adj[node]) == 0:
                continue
            tgt = best_move(int(node), force=False)
            if tgt >= 0 and tgt != labels[node]:
                apply_move(int(node), tgt)
                moved += 1
        if moved == 0:
            break

    if len(np.unique(labels)) == n and n > 1:
        # Stalled: force-merge singletons into best neighbor community
        # (or pair up isolated nodes) so the hierarchy keeps coarsening.
        for node in order:
            if comm_size[labels[node]] != 1:
                continue
            tgt = best_move(int(node), force=True)
            if tgt < 0:
                # no connected option under the cap: pair with another
                # singleton (disconnected components end up grouped).
                others = np.flatnonzero(
                    (comm_size[labels] == 1) & (labels != labels[node])
                )
                if len(others) == 0:
                    continue
                tgt = int(labels[others[0]])
                if comm_size[tgt] + 1 > k:
                    continue
            if tgt != labels[node]:
                apply_move(int(node), tgt)

    # compact labels
    uniq, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)

"""Local CSR adjacency kernel.

All single-thread push/walk kernels (the paper's timing setup is a
single-thread CPU) operate on this structure. It is always built from the
same (src, dst) edge list that the Spark DataFrame representation uses, so
the two engines see identical graphs.

Conventions
-----------
* The graph is *directed*; an undirected input is stored as two arcs.
* ``m`` is the number of directed arcs (this is the ``m`` in Eq. (5) and in
  the DPR normalization Eq. (4); for a symmetrized undirected graph it is
  twice the undirected edge count, matching Eq. (11)'s sum-to-2m identity).
* Node ids are contiguous ``0..n-1``.
"""
from __future__ import annotations

import numpy as np

# A propagation round whose frontier touches more than this share of the m
# arcs sweeps the whole arc list instead of gathering the frontier's CSR
# slices (the sparse/dense switch of Ligra's edgeMap). Chosen from a sweep
# over 0.05-0.5 on the Twitter and Youtube analogs; see CHANGES.md.
DENSE_ARC_SHARE = 0.3


class CSRGraph:
    """Compressed-sparse-row adjacency with both edge directions.

    Attributes
    ----------
    n, m : int
        Node count and *directed arc* count.
    indptr, indices : np.ndarray
        Out-adjacency in CSR form (``indices[indptr[v]:indptr[v+1]]`` are
        the out-neighbors of ``v``).
    rindptr, rindices : np.ndarray
        In-adjacency (reverse graph) in CSR form.
    out_deg : np.ndarray
        Out-degree per node (``d(v)`` in the paper).
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if len(src) and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n
        ):
            raise ValueError("node id out of range")
        self.n = int(n)
        self.m = int(len(src))
        order = np.lexsort((dst, src))
        s, d = src[order], dst[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.indptr, s + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = d
        rorder = np.lexsort((s, d))
        # the head of each arc in (dst, src) order: the sender of a reverse
        # propagation along that in-arc
        self._dst_rsorted = d[rorder]
        self.rindptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.rindptr, self._dst_rsorted + 1, 1)
        np.cumsum(self.rindptr, out=self.rindptr)
        self.rindices = s[rorder]
        self._out_count = np.diff(self.indptr)
        self._in_count = np.diff(self.rindptr)
        self.out_deg = self._out_count.astype(np.float64)
        self._src_sorted = s

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_undirected(cls, n: int, u: np.ndarray, v: np.ndarray) -> "CSRGraph":
        """Build from unique undirected edges; stores both arc directions."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return cls(n, np.concatenate([u, v]), np.concatenate([v, u]))

    # -- accessors --------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.rindices[self.rindptr[v] : self.rindptr[v + 1]]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays of all directed arcs, sorted by (src, dst)."""
        return self._src_sorted, self.indices

    def out_edges_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (src-repeated, dst) arcs out of ``nodes`` (batched)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self._out_count[nodes]
        srcs = np.repeat(nodes, counts)
        idx = _slice_concat(self.indptr, nodes, counts)
        return srcs, self.indices[idx]

    def in_edges_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (dst-repeated, src) arcs into ``nodes`` (batched)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self._in_count[nodes]
        dsts = np.repeat(nodes, counts)
        idx = _slice_concat(self.rindptr, nodes, counts)
        return dsts, self.rindices[idx]

    # -- propagation --------------------------------------------------------
    def propagate(
        self, nodes: np.ndarray, vals: np.ndarray, *, reverse: bool = False
    ) -> tuple[np.ndarray, int]:
        """One propagation step from ``nodes`` along their arcs.

        Every arc out of ``nodes[i]`` (into it when ``reverse``) carries
        ``vals[i]`` to its other end. Returns the length-n vector of sums
        received per node and the number of arcs touched, which is what
        the push kernels charge as edge operations.

        A frontier touching at most ``DENSE_ARC_SHARE * m`` arcs is
        expanded through :meth:`out_edges_of` / :meth:`in_edges_of`; a
        larger one makes one sweep over the whole arc list, where arcs
        outside the frontier carry zero. Both paths add each receiver's
        terms in the same order, so they return identical sums when
        ``nodes`` is sorted and distinct.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if reverse:
            counts, senders, receivers = self._in_count, self._dst_rsorted, self.rindices
        else:
            counts, senders, receivers = self._out_count, self._src_sorted, self.indices
        node_counts = counts[nodes]
        arcs = int(node_counts.sum())
        if arcs <= DENSE_ARC_SHARE * self.m:
            expand = self.in_edges_of if reverse else self.out_edges_of
            _, receivers = expand(nodes)
            weights = np.repeat(vals, node_counts)
        else:
            per_node = np.bincount(nodes, weights=vals, minlength=self.n)
            weights = per_node[senders]
        sums = np.bincount(receivers, weights=weights, minlength=self.n)
        # bincount returns int64 zeros when no arc is touched
        return sums.astype(np.float64, copy=False), arcs

    # -- dense operators (small graphs only) -------------------------------
    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic random-walk matrix P (dangling rows stay zero)."""
        P = np.zeros((self.n, self.n))
        s, d = self.edge_array()
        np.add.at(P, (s, d), 1.0)
        deg = self.out_deg.copy()
        deg[deg == 0] = 1.0
        return P / deg[:, None]


def _slice_concat(indptr: np.ndarray, nodes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices selecting CSR slices of ``nodes``, concatenated, no python loop.

    Arc t of the result lies in block b at offset t - block_starts[b], so
    its index is (indptr[nodes[b]] - block_starts[b]) + t: one repeat.
    """
    block_starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    return np.repeat(indptr[nodes] - block_starts, counts) + np.arange(total, dtype=np.int64)

"""Supergraph hierarchy (paper §2.2 tree H + §5 construction).

``build_hierarchy`` repeatedly applies Louvain+ until the coarsest level
has at most ``k`` supernodes. The resulting :class:`Hierarchy` answers the
queries Tau-Push and PPRviz need:

* ``leaf_labels[l][leaf] `` — the level-l supernode containing each leaf
  (level 0 is the identity);
* ``children(l, s)`` — level-(l-1) ids of the children of supernode s;
* ``leaf_set(l, s)`` — all leaves under supernode s (O(|F|) slicing);
* ``random_zoom_path`` — the paper's §7.1 response-time protocol: start at
  the root (children = the coarsest supergraph) and descend through random
  supernodes to level 1 (whose children are leaves).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.hierarchy.louvain import contract, louvain_plus_level


@dataclass
class Hierarchy:
    """Multi-level partition of the leaves of a graph.

    ``leaf_labels[l]`` (l = 0..L) maps each leaf to its level-l supernode
    id; level 0 is identity, level L is the coarsest (<= k supernodes).
    """

    n: int
    k: int
    leaf_labels: list = field(repr=False)  # list[np.ndarray]
    _order: list = field(init=False, repr=False)
    _bounds: list = field(init=False, repr=False)

    def __post_init__(self):
        # argsort per level for O(1) leaf-set slicing
        self._order, self._bounds = [], []
        for lab in self.leaf_labels:
            order = np.argsort(lab, kind="stable")
            counts = np.bincount(lab, minlength=int(lab.max()) + 1)
            bounds = np.concatenate([[0], np.cumsum(counts)])
            self._order.append(order)
            self._bounds.append(bounds)

    # -- basic shape ------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Index of the coarsest level L (leaves are level 0)."""
        return len(self.leaf_labels) - 1

    def n_supernodes(self, level: int) -> int:
        return int(self.leaf_labels[level].max()) + 1

    # -- membership -------------------------------------------------------
    def leaf_set(self, level: int, sup: int) -> np.ndarray:
        """All leaf ids under supernode ``sup`` at ``level`` (F(V) in Eq. 2)."""
        lo, hi = self._bounds[level][sup], self._bounds[level][sup + 1]
        return self._order[level][lo:hi]

    def children(self, level: int, sup: int) -> np.ndarray:
        """Level-(level-1) supernode ids that are children of ``sup``."""
        if level == 0:
            raise ValueError("leaves have no children")
        below = self.leaf_labels[level - 1][self.leaf_set(level, sup)]
        return np.unique(below)

    def parent_labels(self, level: int) -> np.ndarray:
        """Map each level-``level`` supernode to its level+1 parent."""
        if level >= self.n_levels:
            raise ValueError("coarsest level has the (virtual) root as parent")
        up = np.full(self.n_supernodes(level), -1, dtype=np.int64)
        up[self.leaf_labels[level]] = self.leaf_labels[level + 1]
        return up

    # -- queries ----------------------------------------------------------
    def query_children_leafsets(
        self, parent_level: int, sup: int | None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Children of a supernode and their leaf sets.

        A query is identified by its *parent*: ``(parent_level, sup)`` asks
        to visualize the children (at ``parent_level - 1``) of supernode
        ``sup``. ``sup=None`` denotes the virtual root at level L+1, whose
        children are all supernodes of the coarsest level L (for a graph
        with n <= k this is simply all leaves — single-level drawing).
        Returns (child ids at ``parent_level - 1``, list of leaf arrays
        F(V_i) aligned with the ids).
        """
        if sup is None:
            child_level = self.n_levels
            kids = np.arange(self.n_supernodes(child_level))
        else:
            child_level = parent_level - 1
            kids = self.children(parent_level, sup)
        return kids, [self.leaf_set(child_level, int(c)) for c in kids]

    def random_zoom_path(self, rng: np.random.Generator) -> list[tuple[int, int | None]]:
        """One §7.1 zoom-in path of queries [(parent_level, sup), ...].

        Starts at the virtual root (children = coarsest supergraph) and
        descends through uniformly random supernodes until the parent is a
        level-1 supernode (children = leaves). Each entry is one
        visualization request for :meth:`query_children_leafsets`.
        """
        path: list[tuple[int, int | None]] = [(self.n_levels + 1, None)]
        sup: int | None = None
        for parent_level in range(self.n_levels + 1, 1, -1):
            kids, _ = self.query_children_leafsets(parent_level, sup)
            sup = int(rng.choice(kids))
            path.append((parent_level - 1, sup))
        return path


def build_hierarchy(g: CSRGraph, k: int, *, seed: int = 0) -> Hierarchy:
    """Construct the Louvain+ supergraph hierarchy of a graph.

    Direction is ignored for clustering (paper App. A.1): Louvain+ sees
    each connected node pair once, with weight 1. Every supernode has at
    most k children and the coarsest level has at most k supernodes.
    Needs k >= 2, so that each Louvain+ level merges at least two nodes.
    """
    if k < 2:
        raise ValueError(f"k = {k}: a hierarchy needs k >= 2 children per supernode")
    s, d = g.edge_array()
    pairs = np.unique(np.minimum(s, d) * g.n + np.maximum(s, d))
    a, b = np.divmod(pairs, g.n)
    w = np.ones(len(pairs))
    n_cur = g.n
    leaf_labels = [np.arange(g.n, dtype=np.int64)]
    cur_to_leaf = np.arange(g.n, dtype=np.int64)  # level-l label per leaf
    level = 0
    while n_cur > k:
        labels = louvain_plus_level(a, b, w, n_cur, k, seed=seed + level)
        cur_to_leaf = labels[cur_to_leaf]
        leaf_labels.append(cur_to_leaf.copy())
        a, b, w, n_cur = contract(a, b, w, labels)
        level += 1
    return Hierarchy(n=g.n, k=k, leaf_labels=leaf_labels)

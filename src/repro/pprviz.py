"""PPRviz — the paper's end-to-end framework (§5, Fig. 7).

Preprocessing (once per graph): Louvain+ supergraph hierarchy + Tau-Push
index (DPR vector + precomputed GBP columns). Interactive visualization
(per query): Tau-Push computes the k x k PDist matrix for the children of
the selected supernode, stress majorization embeds it into R^2.

``single_level_layout`` is the k = n special case used for the quality
tables (§5 "Applications"): the hierarchy stage is skipped and the exact
PDist matrix (dense PPR) is embedded directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.index import TauPushIndex, build_taupush_index
from repro.core.pdist import pdist_matrix
from repro.core.taupush import TauPushResult, taupush_query
from repro.graphs.csr import CSRGraph
from repro.hierarchy.supergraph import Hierarchy, build_hierarchy
from repro.layout.stress import stress_majorization
from repro.pprlib.budget import OpBudget
from repro.pprlib.power_iteration import exact_dppr_matrix


@dataclass
class PPRvizModel:
    """Preprocessed state: graph + hierarchy + Tau-Push index."""

    g: CSRGraph
    k: int
    alpha: float
    hierarchy: Hierarchy
    index: TauPushIndex

    def query(
        self,
        parent_level: int,
        sup: int | None,
        *,
        budget: OpBudget | None = None,
        seed: int = 0,
        return_result: bool = False,
    ):
        """Visualize the children of one supernode: PDist + embedding.

        Returns the position matrix X (k x 2), or (X, TauPushResult) when
        ``return_result`` is set.
        """
        kids, leaf_sets = self.hierarchy.query_children_leafsets(parent_level, sup)
        child_level = self.hierarchy.n_levels if sup is None else parent_level - 1
        res: TauPushResult = taupush_query(
            self.g,
            leaf_sets,
            self.index.leaf_dpr,
            self.alpha,
            budget=budget,
            index=self.index,
            children=(child_level, kids),
        )
        X = stress_majorization(res.pdist, seed=seed)
        return (X, res) if return_result else X


def preprocess(
    g: CSRGraph, k: int, *, alpha: float = 0.15, seed: int = 0
) -> PPRvizModel:
    """PPRviz preprocessing: hierarchy + index (paper Fig. 7 left)."""
    h = build_hierarchy(g, k, seed=seed)
    idx = build_taupush_index(g, h, alpha)
    return PPRvizModel(g=g, k=k, alpha=alpha, hierarchy=h, index=idx)


def single_level_pdist(g: CSRGraph, *, alpha: float = 0.15) -> np.ndarray:
    """Exact single-level PDist matrix (Def. 3.1) via dense PPR (n <= ~2K)."""
    return pdist_matrix(exact_dppr_matrix(g, alpha), g.n)


def single_level_layout(
    g: CSRGraph, *, alpha: float = 0.15, seed: int = 0
) -> np.ndarray:
    """PPRviz single-level drawing: exact PDist + stress majorization."""
    return stress_majorization(single_level_pdist(g, alpha=alpha), seed=seed)

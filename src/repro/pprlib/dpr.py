"""Degree-normalized PageRank (DPR, paper Eq. (4)) — the Tau-Push index.

For a leaf node t, tau_t = (1/m) * sum_k pi_d(v_k, t)
                        = sum_k (d(v_k)/m) * pi(v_k, t),
i.e. global PageRank with the *degree-proportional* start distribution
s = d/m (paper §4.3 "setting the k-th entry in the initial global PageRank
as d(v_k)/m"). For a supernode V_j, tau_j is the mean of tau_t over its
leaves (Eq. (4) after the same algebra).

:func:`dpr_vector_local` runs the PI competitor's power iteration from
d/m on either engine: over a CSRGraph for the single-thread kernels and
the index builder, and over a SparkGraph in :func:`dpr_vector_spark`, the
distributed preprocessing path, where each step is a Spark join of the
mass vector with the arc list. Tests assert the two agree.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graphs.csr import CSRGraph
from repro.graphs.spark_graph import SparkGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.power_iteration import power_iteration


def dpr_vector_local(
    g: CSRGraph, alpha: float, *, max_iter: int = 300, budget: OpBudget | None = None
) -> np.ndarray:
    """DPR vector over leaves: :func:`power_iteration` from d/m until the
    remaining walk mass is below 1e-12; sums to ~1. Charges the arcs of
    every propagation to ``budget``.

    Runs on any graph with ``n``, ``m``, ``out_deg`` and ``propagate`` (a
    CSRGraph or a SparkGraph).
    """
    x0 = g.out_deg / max(1.0, float(g.m))
    return power_iteration(g, x0, alpha, tol=1e-12, max_iter=max_iter, budget=budget)


def dpr_vector_spark(
    edges: DataFrame, n: int, alpha: float, *, n_iter: int = 60
) -> DataFrame:
    """DPR vector as a (node, dpr) DataFrame, every propagation a Spark job.

    :func:`dpr_vector_local` over the (src, dst) arc list, capped at
    ``n_iter`` propagations, so its truncation error is at most
    (1 - alpha)^n_iter.
    """
    dpr = dpr_vector_local(SparkGraph(edges, n), alpha, max_iter=n_iter)
    return edges.sparkSession.createDataFrame(
        pd.DataFrame({"node": np.arange(n), "dpr": dpr})
    )


def supernode_dpr(leaf_dpr: np.ndarray, leaf_labels: np.ndarray) -> np.ndarray:
    """tau_j per supernode = mean leaf DPR over F(V_j) (Eq. (4))."""
    n_sup = int(leaf_labels.max()) + 1
    sums = np.zeros(n_sup)
    np.add.at(sums, leaf_labels, leaf_dpr)
    counts = np.bincount(leaf_labels, minlength=n_sup).astype(np.float64)
    return sums / np.maximum(counts, 1.0)


def leaf_set_dpr(leaf_dpr: np.ndarray, leaf_sets: list[np.ndarray]) -> np.ndarray:
    """tau_i per query child = mean leaf DPR over F(V_i); 0 for an empty set."""
    return np.array([leaf_dpr[fs].mean() if len(fs) else 0.0 for fs in leaf_sets])

"""Degree-normalized PageRank (DPR, paper Eq. (4)) — the Tau-Push index.

For a leaf node t, tau_t = (1/m) * sum_k pi_d(v_k, t)
                        = sum_k (d(v_k)/m) * pi(v_k, t),
i.e. global PageRank with the *degree-proportional* start distribution
s = d/m (paper §4.3 "setting the k-th entry in the initial global PageRank
as d(v_k)/m"). For a supernode V_j, tau_j is the mean of tau_t over its
leaves (Eq. (4) after the same algebra).

One power iteration, :func:`dpr_vector_local`, computes it on either
engine: over a CSRGraph for the single-thread kernels and the index
builder, and over a SparkGraph in :func:`dpr_vector_spark`, the
distributed preprocessing path, where each step is a Spark join of the
mass vector with the arc list. Tests assert the two agree.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graphs.csr import CSRGraph
from repro.graphs.spark_graph import SparkGraph


def dpr_vector_local(
    g: CSRGraph, alpha: float, *, tol: float = 1e-12, max_iter: int = 300
) -> np.ndarray:
    """DPR vector over leaves by power iteration; sums to ~1.

    Stops once the remaining walk mass (1 - alpha)^i drops below ``tol``
    or after ``max_iter`` propagations. Runs on any graph with ``n``,
    ``m``, ``out_deg`` and ``propagate`` (a CSRGraph or a SparkGraph).
    """
    nodes = np.arange(g.n)
    deg = np.maximum(g.out_deg, 1.0)
    x = g.out_deg / max(1.0, float(g.m))
    pi = alpha * x
    weight = 1.0
    for _ in range(max_iter):
        if weight < tol:
            break
        x, _ = g.propagate(nodes, x / deg)
        weight *= 1.0 - alpha
        pi += alpha * weight * x
    return pi


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

"""Degree-normalized PageRank (DPR, paper Eq. (4)) — the Tau-Push index.

For a leaf node t, tau_t = (1/m) * sum_k pi_d(v_k, t)
                        = sum_k (d(v_k)/m) * pi(v_k, t),
i.e. global PageRank with the *degree-proportional* start distribution
s = d/m (paper §4.3 "setting the k-th entry in the initial global PageRank
as d(v_k)/m"). For a supernode V_j, tau_j is the mean of tau_t over its
leaves (Eq. (4) after the same algebra).

Two engines compute the same vector:
* :func:`dpr_vector_local` — numpy power iteration (used by the single-
  thread kernels and the index builder);
* :func:`dpr_vector_spark` — iterative Spark DataFrame dataflow
  (rank join edges, groupBy dst), the distributed preprocessing path.
Tests assert they agree.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, functions as F

from repro.graphs.csr import CSRGraph


def dpr_vector_local(
    g: CSRGraph, alpha: float, *, tol: float = 1e-12, max_iter: int = 300
) -> np.ndarray:
    """DPR vector over leaves by power iteration; sums to ~1."""
    nodes = np.arange(g.n)
    deg = np.maximum(g.out_deg, 1.0)
    x = g.out_deg / max(1.0, float(g.m))
    pi = np.zeros(g.n)
    weight = 1.0
    for _ in range(max_iter):
        pi += alpha * weight * x
        if weight < tol:
            break
        x, _ = g.propagate(nodes, x / deg)
        weight *= 1.0 - alpha
    return pi


def dpr_vector_spark(
    edges: DataFrame, n: int, alpha: float, *, n_iter: int = 60
) -> DataFrame:
    """DPR vector as a (node, dpr) DataFrame via iterative dataflow.

    Same fixed-point as :func:`dpr_vector_local`, expressed as n_iter
    rounds of rank-join-aggregate over the (src, dst) arc list. Nodes with
    zero mass may be absent from the result (treat as dpr = 0).
    """
    spark = edges.sparkSession
    deg = edges.groupBy(F.col("src").alias("node")).agg(
        F.count("*").alias("deg")
    )
    m = edges.count()
    # start distribution s = d/m; x holds the current step's mass
    x = deg.select("node", (F.col("deg") / F.lit(float(m))).alias("mass"))
    pi = x.select("node", (F.lit(alpha) * F.col("mass")).alias("dpr"))
    weight = 1.0
    for i in range(n_iter):
        sends = (
            x.join(deg, "node")
            .join(edges, F.col("node") == F.col("src"))
            .select(F.col("dst").alias("node"), (F.col("mass") / F.col("deg")).alias("mass"))
            .groupBy("node")
            .agg(F.sum("mass").alias("mass"))
        )
        x = sends
        weight *= 1.0 - alpha
        pi = (
            pi.unionByName(
                x.select("node", (F.lit(alpha * weight) * F.col("mass")).alias("dpr"))
            )
            .groupBy("node")
            .agg(F.sum("dpr").alias("dpr"))
        )
        if (i + 1) % 8 == 0:
            # cut lineage so the plan doesn't grow unboundedly
            pi = pi.localCheckpoint(eager=True)
            x = x.localCheckpoint(eager=True)
    return pi


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

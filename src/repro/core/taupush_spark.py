"""Tau-Push as Spark DataFrame dataflow (Pregel-style, partitioned by node).

Each GFP/GBP round is one frontier-synchronous superstep expressed in the
DataFrame API: residues join the arc list, messages group-by destination,
and below-threshold residues carry over. The push invariant (Eq. (3))
holds under any schedule, so this computes exactly what the single-thread
kernels in ``repro.core.gfp``/``gbp`` compute — tests assert both engines
agree to float tolerance on every test graph.

This is the scalability path of the reproduction (the repro brief's
"GraphX Pregel-style iterative push, partitioned by node"); the timing
tables use the single-thread kernels to mirror the paper's setup, because
a ~0.2 s Spark job launch per superstep would drown the sub-second
response-time contrasts the tables exist to show (DESIGN.md §3).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.gfp import aggregate_to_supernodes
from repro.core.pdist import pdist_matrix
from repro.core.taupush import membership_arrays, taupush_params
from repro.graphs.csr import CSRGraph
from repro.pprlib.dpr import leaf_set_dpr


def _residue_df(spark: SparkSession, nodes: np.ndarray, values: np.ndarray) -> DataFrame:
    return spark.createDataFrame(
        pd.DataFrame({"node": nodes.astype("int64"), "r": values.astype("float64")})
    )


def push_rounds_spark(
    spark: SparkSession,
    edges: DataFrame,
    deg: DataFrame,
    residues: DataFrame,
    rmax: float,
    alpha: float,
    *,
    degree_scaled_threshold: bool,
    backward: bool,
    max_rounds: int = 60,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Frontier-synchronous push until no residue exceeds its threshold.

    ``degree_scaled_threshold`` selects r > d(v) * rmax (forward) vs
    r > rmax (backward). ``backward`` pushes along reversed arcs with the
    1/d(in-neighbor) weight of Alg. 3. Returns (estimates, final residues)
    as pandas frames (node, est) / (node, r); estimates accumulate
    alpha * pushed residue per node, exactly like the local kernels.
    """
    if backward:
        # arcs reversed; each message is weighted by the receiver's out-deg
        msgs_edges = edges.select(
            F.col("dst").alias("node"), F.col("src").alias("to")
        )
    else:
        msgs_edges = edges.select(
            F.col("src").alias("node"), F.col("dst").alias("to")
        )
    est = spark.createDataFrame([], "node long, est double")
    cur = residues
    for _ in range(max_rounds):
        with_deg = cur.join(deg, "node", "left").fillna({"deg": 0})
        if degree_scaled_threshold:
            cond = F.col("r") > F.col("deg") * F.lit(rmax)
        else:
            cond = F.col("r") > F.lit(rmax)
        active = with_deg.where(cond).localCheckpoint(eager=True)
        if active.limit(1).count() == 0:
            break
        inactive = with_deg.where(~cond).select("node", "r")
        gains = active.select("node", (F.lit(alpha) * F.col("r")).alias("est"))
        est = (
            est.unionByName(gains)
            .groupBy("node")
            .agg(F.sum("est").alias("est"))
            .localCheckpoint(eager=True)
        )
        if backward:
            # receiver 'to' gets (1-alpha) * r / d(to)
            msgs = (
                active.join(msgs_edges, "node")
                .select(F.col("to").alias("node"), F.col("r"))
                .join(deg.withColumnRenamed("deg", "to_deg"), "node")
                .select(
                    "node",
                    ((1.0 - alpha) * F.col("r") / F.col("to_deg")).alias("r"),
                )
            )
        else:
            msgs = active.join(msgs_edges, "node").select(
                F.col("to").alias("node"),
                ((1.0 - alpha) * F.col("r") / F.col("deg")).alias("r"),
            )
        cur = (
            inactive.unionByName(msgs)
            .groupBy("node")
            .agg(F.sum("r").alias("r"))
            .localCheckpoint(eager=True)
        )
    return est.toPandas(), cur.toPandas()


def taupush_query_spark(
    spark: SparkSession,
    g: CSRGraph,
    edges: DataFrame,
    leaf_sets: list[np.ndarray],
    leaf_dpr: np.ndarray,
    alpha: float,
    *,
    eps: float | None = None,
    delta: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 with both push phases running as Spark dataflow.

    Returns (pdist, dppr) k x k arrays — the same quantities as the local
    ``taupush_query``.
    """
    k = len(leaf_sets)
    tau, rmax, rmax_b = taupush_params(g, leaf_sets, eps, delta)
    member, sizes = membership_arrays(g.n, leaf_sets)
    deg = edges.groupBy(F.col("src").alias("node")).agg(
        F.count("*").alias("deg")
    ).localCheckpoint(eager=True)

    def agg(est_pdf: pd.DataFrame, weight: np.ndarray | None = None) -> np.ndarray:
        dense = np.zeros(g.n)
        if len(est_pdf):
            dense[est_pdf["node"].to_numpy()] = est_pdf["est"].to_numpy()
        return aggregate_to_supernodes(dense, member, sizes, weight=weight)

    dppr = np.zeros((k, k))
    for i, fs in enumerate(leaf_sets):
        res0 = _residue_df(spark, fs, g.out_deg[fs] / max(1, len(fs)))
        est_pdf, _ = push_rounds_spark(
            spark, edges, deg, res0, rmax, alpha,
            degree_scaled_threshold=True, backward=False,
        )
        dppr[i, :] = agg(est_pdf)

    for j in np.flatnonzero(leaf_set_dpr(leaf_dpr, leaf_sets) > tau):
        fs = leaf_sets[j]
        res0 = _residue_df(spark, fs, np.full(len(fs), 1.0 / max(1, len(fs))))
        est_pdf, _ = push_rounds_spark(
            spark, edges, deg, res0, rmax_b, alpha,
            degree_scaled_threshold=False, backward=True,
        )
        dppr[:, j] = agg(est_pdf, g.out_deg)
    return pdist_matrix(dppr, g.n), dppr

"""Tau-Push (Algorithm 1) with every arc traversal running as Spark dataflow.

There is one Tau-Push: :func:`repro.core.taupush.taupush_query`, whose push
kernels call ``g.propagate`` once per frontier-synchronous round. Run on a
:class:`repro.graphs.spark_graph.SparkGraph`, each round is one Spark
superstep (frontier join arcs, group by receiver, sum) while the residue
and estimate vectors stay on the driver. Both engines therefore share the
push rule, the thresholds and the schedule, and report the same op counts.

This is the scalability path of the reproduction (the repro brief's
"GraphX Pregel-style iterative push, partitioned by node"); the timing
tables use the single-thread kernels to mirror the paper's setup, because
a Spark job launch per superstep would drown the sub-second
response-time contrasts the tables exist to show (DESIGN.md §3).

Callers run ``taupush_query(SparkGraph(edges, n), ...)`` directly. This
wrapper stays only because the ``spark_fbego`` workload of
``perfbench/run.py`` imports it.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.taupush import taupush_query
from repro.graphs.csr import CSRGraph
from repro.graphs.spark_graph import SparkGraph


def taupush_query_spark(
    spark: SparkSession,
    g: CSRGraph,
    edges: DataFrame,
    leaf_sets: list[np.ndarray],
    leaf_dpr: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 over the (src, dst) arc DataFrame ``edges`` of ``g``.

    Returns (pdist, dppr) k x k arrays — the same quantities as the local
    ``taupush_query``.
    """
    res = taupush_query(SparkGraph(edges, g.n), leaf_sets, leaf_dpr, alpha)
    return res.pdist, res.dppr

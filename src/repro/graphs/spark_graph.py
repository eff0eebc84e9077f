"""Spark DataFrame graph: the (src, dst) arc list as the distributed graph.

The degree aggregates have plain-SQL equivalents, so tests oracle-check
them against DuckDB on the same input (see tests/test_spark_graph).
:class:`SparkGraph` exposes the same propagation primitive as
:class:`repro.graphs.csr.CSRGraph`, so every push kernel runs unchanged on
either graph: the O(m) arc list stays a partitioned DataFrame and every
arc traversal is a Spark job, while the O(n) vertex vectors (residues,
estimates, DPR) stay numpy on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F


def out_degrees(edges: DataFrame) -> DataFrame:
    """(node, out_deg) from a directed (src, dst) arc list."""
    return edges.groupBy(F.col("src").alias("node")).agg(
        F.count("*").alias("out_deg")
    )


def in_degrees(edges: DataFrame) -> DataFrame:
    """(node, in_deg) from a directed (src, dst) arc list."""
    return edges.groupBy(F.col("dst").alias("node")).agg(
        F.count("*").alias("in_deg")
    )


def _per_node(counts: DataFrame, n: int) -> np.ndarray:
    """Length-n int64 array from a collected (node, count) frame."""
    pdf = counts.toPandas()
    out = np.zeros(n, dtype=np.int64)
    out[pdf.iloc[:, 0].to_numpy()] = pdf.iloc[:, 1].to_numpy()
    return out


class SparkGraph:
    """A directed graph on nodes ``0..n-1`` held as a (src, dst) DataFrame.

    Attributes ``n``, ``m`` and ``out_deg`` mean what they mean on
    :class:`CSRGraph`; the degrees are aggregated once, by Spark, and kept
    on the driver.
    """

    def __init__(self, edges: DataFrame, n: int):
        self.edges = edges
        self.n = int(n)
        self._out_count = _per_node(out_degrees(edges), self.n)
        self._in_count = _per_node(in_degrees(edges), self.n)
        self.m = int(self._out_count.sum())
        self.out_deg = self._out_count.astype(np.float64)

    def propagate(
        self, nodes: np.ndarray, vals: np.ndarray, *, reverse: bool = False
    ) -> tuple[np.ndarray, int]:
        """One Spark superstep from ``nodes`` along their arcs.

        Same contract as :meth:`CSRGraph.propagate`: every arc out of
        ``nodes[i]`` (into it when ``reverse``) carries ``vals[i]`` to its
        other end; returns the length-n received sums and the arcs
        touched. The frontier (node, val) joins the arc list, messages
        group by receiver and are summed, and the sums are collected.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self._in_count if reverse else self._out_count
        arcs = int(counts[nodes].sum())
        sums = np.zeros(self.n)
        if arcs == 0:
            return sums, 0
        sender, receiver = ("dst", "src") if reverse else ("src", "dst")
        frontier = self.edges.sparkSession.createDataFrame(
            pd.DataFrame({sender: nodes, "val": np.asarray(vals, dtype=np.float64)})
        )
        # the frontier comes from driver memory and has at most n rows, so
        # it is broadcast and the O(m) arc list is never shuffled
        got = (
            F.broadcast(frontier).join(self.edges, sender)
            .groupBy(receiver)
            .agg(F.sum("val").alias("val"))
            .toPandas()
        )
        sums[got[receiver].to_numpy()] = got["val"].to_numpy()
        return sums, arcs

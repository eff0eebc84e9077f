"""Distributed Tau-Push demo — the Pregel-style Spark dataflow end to end.

Runs the full Algorithm 1 (GFP + GBP supersteps as DataFrame joins,
partitioned by node) for the root query of a chosen dataset and prints the
resulting PDist matrix, cross-checked against the single-thread kernel.
"""
import numpy as np
from pyspark.sql import SparkSession

from repro.core.taupush import taupush_query
from repro.graphs.datasets import load_dataset
from repro.graphs.spark_graph import SparkGraph
from repro.hierarchy.supergraph import build_hierarchy
from repro.pprlib.dpr import dpr_vector_local
from repro.pprviz import ALPHA


def run(spark: SparkSession, dataset: str = "FbEgo", k: int = 10):
    d = load_dataset(dataset)
    g = d.csr()
    h = build_hierarchy(g, k, seed=0)
    _, leaf_sets = h.query_children_leafsets(h.n_levels + 1, None)
    dpr = dpr_vector_local(g, ALPHA)
    edges = d.edge_df(spark).localCheckpoint(eager=True)
    pdist_s = taupush_query(SparkGraph(edges, g.n), leaf_sets, dpr, ALPHA).pdist
    res_local = taupush_query(g, leaf_sets, dpr, ALPHA)
    agree = np.abs(pdist_s - res_local.pdist).max()
    print(f"k={len(leaf_sets)} supernodes; |spark - local|_max = {agree:.2e}")
    print(np.round(pdist_s, 3))
    return pdist_s


if __name__ == "__main__":
    from _common import get_spark

    run(get_spark("taupush-spark-demo"))

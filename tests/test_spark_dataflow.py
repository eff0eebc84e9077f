"""Spark iterative dataflow == single-thread kernels (DPR, GFP/GBP, Tau-Push)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.taupush import membership_arrays, taupush_query
from repro.core.taupush_spark import push_rounds_spark, taupush_query_spark
from repro.graphs.datasets import load_dataset
from repro.pprlib.dpr import dpr_vector_local, dpr_vector_spark
from repro.pprlib.push import backward_push, forward_push

ALPHA = 0.15


@pytest.fixture(scope="module")
def fb(spark):
    d = load_dataset("FbEgo")
    return d, d.csr(), d.edge_df(spark).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def deg_df(spark, fb):
    from pyspark.sql import functions as F

    _, _, edges = fb
    return (
        edges.groupBy(F.col("src").alias("node"))
        .agg(F.count("*").alias("deg"))
        .localCheckpoint(eager=True)
    )


def test_dpr_spark_matches_local(spark, fb):
    d, g, edges = fb
    local = dpr_vector_local(g, ALPHA)
    # truncation error of N iterations is (1-alpha)^N: 0.85^90 ~ 4.4e-7
    got = dpr_vector_spark(edges, g.n, ALPHA, n_iter=90).toPandas()
    vec = np.zeros(g.n)
    vec[got["node"].to_numpy()] = got["dpr"].to_numpy()
    np.testing.assert_allclose(vec, local, atol=1e-5)


def test_forward_push_spark_matches_local(spark, fb, deg_df):
    d, g, edges = fb
    src = 0
    r0 = np.zeros(g.n)
    r0[src] = g.out_deg[src]
    est_l, res_l, _ = forward_push(g, r0, rmax=0.01, alpha=ALPHA)
    from repro.core.taupush_spark import _residue_df

    est_pdf, res_pdf = push_rounds_spark(
        spark, edges, deg_df,
        _residue_df(spark, np.array([src]), np.array([g.out_deg[src]])),
        0.01, ALPHA, degree_scaled_threshold=True, backward=False,
    )
    est_s = np.zeros(g.n)
    est_s[est_pdf["node"].to_numpy()] = est_pdf["est"].to_numpy()
    res_s = np.zeros(g.n)
    res_s[res_pdf["node"].to_numpy()] = res_pdf["r"].to_numpy()
    np.testing.assert_allclose(est_s, est_l, atol=1e-9)
    np.testing.assert_allclose(res_s, res_l, atol=1e-9)


def test_backward_push_spark_matches_local(spark, fb, deg_df):
    d, g, edges = fb
    tgt = 1
    r0 = np.zeros(g.n)
    r0[tgt] = 1.0
    est_l, res_l, _ = backward_push(g, r0, rmax_b=0.01, alpha=ALPHA)
    from repro.core.taupush_spark import _residue_df

    est_pdf, res_pdf = push_rounds_spark(
        spark, edges, deg_df,
        _residue_df(spark, np.array([tgt]), np.array([1.0])),
        0.01, ALPHA, degree_scaled_threshold=False, backward=True,
    )
    est_s = np.zeros(g.n)
    est_s[est_pdf["node"].to_numpy()] = est_pdf["est"].to_numpy()
    res_s = np.zeros(g.n)
    res_s[res_pdf["node"].to_numpy()] = res_pdf["r"].to_numpy()
    np.testing.assert_allclose(est_s, est_l, atol=1e-9)
    np.testing.assert_allclose(res_s, res_l, atol=1e-9)


def test_taupush_spark_matches_local(spark, fb):
    """Full Algorithm 1: Spark dataflow == local kernels (same schedule)."""
    d, g, edges = fb
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, g.n)
    leaf_sets = [np.flatnonzero(labels == i) for i in range(4)]
    dpr = dpr_vector_local(g, ALPHA)
    pd_s, dppr_s = taupush_query_spark(spark, g, edges, leaf_sets, dpr, ALPHA)
    res_l = taupush_query(g, leaf_sets, dpr, ALPHA)
    np.testing.assert_allclose(dppr_s, res_l.dppr, atol=1e-9)
    np.testing.assert_allclose(pd_s, res_l.pdist, atol=1e-9)


def test_forward_push_spark_dangling_matches_local(spark):
    """Dangling nodes 2 and 3 push in both engines: they keep alpha * r
    and send nothing."""
    from pyspark.sql import functions as F

    from repro.core.taupush_spark import _residue_df
    from repro.graphs.csr import CSRGraph

    src, dst = np.array([0, 0, 1]), np.array([1, 2, 3])
    g = CSRGraph(4, src, dst)
    edges = spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst}))
    deg = edges.groupBy(F.col("src").alias("node")).agg(F.count("*").alias("deg"))
    r0 = np.array([g.out_deg[0], 0.0, 0.0, 0.0])
    est_l, res_l, _ = forward_push(g, r0, rmax=0.01, alpha=ALPHA)
    est_pdf, res_pdf = push_rounds_spark(
        spark, edges, deg, _residue_df(spark, np.array([0]), r0[:1]),
        0.01, ALPHA, degree_scaled_threshold=True, backward=False,
    )
    est_s = np.zeros(g.n)
    est_s[est_pdf["node"].to_numpy()] = est_pdf["est"].to_numpy()
    res_s = np.zeros(g.n)
    res_s[res_pdf["node"].to_numpy()] = res_pdf["r"].to_numpy()
    assert est_l[2] > 0 and est_l[3] > 0 and res_l[2] == res_l[3] == 0
    np.testing.assert_allclose(est_s, est_l, atol=1e-12)
    np.testing.assert_allclose(res_s, res_l, atol=1e-12)

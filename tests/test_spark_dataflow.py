"""One push kernel, two graphs: the kernels over a SparkGraph equal the
kernels over a CSRGraph (DPR, Forward/Backward-Push, Tau-Push)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.taupush import taupush_query
from repro.core.taupush_spark import taupush_query_spark
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.graphs.spark_graph import SparkGraph
from repro.hierarchy.supergraph import build_hierarchy
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import dpr_vector_local, dpr_vector_spark
from repro.pprlib.push import backward_push, forward_push
from repro.pprviz import ALPHA


def spark_graph(spark, g: CSRGraph) -> SparkGraph:
    s, d = g.edge_array()
    edges = spark.createDataFrame(pd.DataFrame({"src": s, "dst": d}))
    return SparkGraph(edges.localCheckpoint(eager=True), g.n)


@pytest.fixture(scope="module")
def fb(spark):
    d = load_dataset("FbEgo")
    return d, d.csr(), d.edge_df(spark).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def fb_spark(spark, fb):
    _, g, edges = fb
    return SparkGraph(edges, g.n)


def assert_same_push(kernel, g, sg, r0, thresh):
    """Same rounds and ops on both graphs; est and residue within 1e-12."""
    b_l, b_s = OpBudget(), OpBudget()
    est_l, res_l, rounds_l = kernel(g, r0, thresh, ALPHA, budget=b_l)
    est_s, res_s, rounds_s = kernel(sg, r0, thresh, ALPHA, budget=b_s)
    assert rounds_s == rounds_l > 0
    assert b_s.ops == b_l.ops > 0
    np.testing.assert_allclose(est_s, est_l, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res_s, res_l, rtol=0, atol=1e-12)
    return est_l, res_l


def test_dpr_spark_matches_local(spark, fb):
    d, g, edges = fb
    local = dpr_vector_local(g, ALPHA)
    # truncation error of N iterations is (1-alpha)^N: 0.85^90 ~ 4.4e-7
    got = dpr_vector_spark(edges, g.n, ALPHA, n_iter=90).toPandas()
    vec = np.zeros(g.n)
    vec[got["node"].to_numpy()] = got["dpr"].to_numpy()
    np.testing.assert_allclose(vec, local, atol=1e-5)


def test_forward_push_spark_matches_local(fb, fb_spark):
    _, g, _ = fb
    r0 = np.zeros(g.n)
    r0[0] = g.out_deg[0]
    assert_same_push(forward_push, g, fb_spark, r0, 0.01)


def test_backward_push_spark_matches_local(fb, fb_spark):
    _, g, _ = fb
    r0 = np.zeros(g.n)
    r0[1] = 1.0
    assert_same_push(backward_push, g, fb_spark, r0, 0.01)


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
    g = CSRGraph(4, np.array([0, 0, 1]), np.array([1, 2, 3]))
    r0 = np.array([g.out_deg[0], 0.0, 0.0, 0.0])
    est, res = assert_same_push(forward_push, g, spark_graph(spark, g), r0, 0.01)
    assert est[2] > 0 and est[3] > 0 and res[2] == res[3] == 0


def assert_same_taupush(spark, g, h, queries):
    """Same ops and GBP targets on both graphs, dppr within 1e-12."""
    dpr = dpr_vector_local(g, ALPHA)
    sg = spark_graph(spark, g)
    gbp_targets = 0
    for query in queries:
        _, leaf_sets = h.query_children_leafsets(*query)
        res_l = taupush_query(g, leaf_sets, dpr, ALPHA)
        res_s = taupush_query(sg, leaf_sets, dpr, ALPHA)
        assert res_s.ops == res_l.ops
        assert res_s.n_gbp_targets == res_l.n_gbp_targets
        np.testing.assert_allclose(res_s.dppr, res_l.dppr, rtol=0, atol=1e-12)
        gbp_targets += res_l.n_gbp_targets
    return gbp_targets


def test_taupush_spark_graph_matches_local_messy(spark, messy):
    """Root and one level-1 query at k = 10 on a graph with dangling and
    isolated nodes, self-loops and repeated arcs."""
    h = build_hierarchy(messy, 10, seed=0)
    assert_same_taupush(spark, messy, h, [(h.n_levels + 1, None), (1, 0)])


def test_taupush_spark_graph_matches_local_with_gbp(spark, twego):
    """A TwEgo query whose hub child passes the tau filter, so GBP runs
    inside Tau-Push on both graphs."""
    h = build_hierarchy(twego, 5, seed=0)
    assert assert_same_taupush(spark, twego, h, [(1, 1)]) == 1

"""Spark DataFrame graph ops, each oracle-checked against DuckDB SQL."""
import pytest

from repro.graphs.datasets import load_dataset
from repro.graphs.spark_graph import in_degrees, out_degrees
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def fb(spark):
    d = load_dataset("FbEgo")
    return d, d.edge_df(spark), d.edge_pandas()


def test_out_degrees_oracle(spark, fb):
    d, edges, pdf = fb
    assert_equivalent(
        out_degrees(edges),
        "SELECT src AS node, COUNT(*) AS out_deg FROM edges GROUP BY src",
        edges=pdf,
    )


def test_in_degrees_oracle(spark, fb):
    d, edges, pdf = fb
    assert_equivalent(
        in_degrees(edges),
        "SELECT dst AS node, COUNT(*) AS in_deg FROM edges GROUP BY dst",
        edges=pdf,
    )


def test_degrees_match_csr(spark, fb):
    d, edges, _ = fb
    g = d.csr()
    got = out_degrees(edges).toPandas().set_index("node")["out_deg"]
    for v in range(g.n):
        assert got.get(v, 0) == g.out_deg[v]

"""Table 3 — dataset statistics (ours vs paper), degrees via Spark SQL."""
from pyspark.sql import SparkSession, functions as F

from repro.graphs.datasets import DATASETS, load_dataset
from repro.graphs.spark_graph import out_degrees


def run(spark: SparkSession):
    rows = []
    for name, (_, pn, pm, _) in DATASETS.items():
        d = load_dataset(name)
        deg = (
            out_degrees(d.edge_df(spark))
            .agg(F.max("out_deg").alias("max_deg"), F.avg("out_deg").alias("avg_deg"))
            .collect()[0]
        )
        rows.append(
            (name, d.n, d.m_undirected, pn, pm, int(deg["max_deg"]), float(deg["avg_deg"]))
        )
    return spark.createDataFrame(
        rows, "dataset string, n long, m_und long, paper_n long, paper_m long, max_deg long, avg_deg double"
    )


if __name__ == "__main__":
    from _common import get_spark

    df = run(get_spark("table3"))
    df.show(20, truncate=False)

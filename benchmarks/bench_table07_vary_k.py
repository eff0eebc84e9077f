"""Table 7 benchmark — PPRviz on the Twitter analog, varying k."""
from benchmarks._cache import print_table
from repro.experiments.tables import table7


def bench_table7_vary_k(benchmark):
    df = benchmark.pedantic(
        lambda: table7(n_paths=3),
        rounds=1, iterations=1,
    )
    print_table("Table 7 (vary k on Twitter analog) — measured", df)
    # paper shape: response time increases with k
    resp = df.set_index("k")["response_s"]
    assert resp.loc[100] > resp.loc[5]

"""Table 6 benchmark — simulated user study (30 raters x 6 groups)."""
from benchmarks._cache import print_table
from repro.userstudy import build_groups, simulate_t3


def bench_table6_userstudy(benchmark):
    def run():
        groups = build_groups(seed=0)
        return simulate_t3(groups, seed=7)

    df = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Table 6 (T3 frequencies) — measured", df)
    row = df.iloc[0]
    assert row.sum() == 30 * 6
    assert row["No difference"] > 0

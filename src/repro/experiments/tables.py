"""One entry point per evaluation table; each returns a pandas frame in
the paper's row/column shape (see DESIGN.md §2 and EXPERIMENTS.md for the
paper-vs-measured diff). Table 3 is ``repro.graphs.datasets.stats_table``
and Table 6 is ``repro.userstudy``."""
from __future__ import annotations

import pandas as pd

from repro.experiments import efficiency as eff
from repro.experiments.quality import pivot_metric, quality_grid
from repro.graphs.datasets import VARIANT_GRAPHS

K = 25  # cluster-size cap of Tables 8-10
TABLE7_KS = (5, 10, 25, 50, 100)  # the k sweep of Table 7, on Twitter


def table4_5_11() -> dict[str, pd.DataFrame]:
    """ND / ULCV / AR pivots over 6 small graphs x 12 methods."""
    grid = quality_grid()
    return {m: pivot_metric(grid, m) for m in ("ND", "ULCV", "AR")}


def table7(*, n_paths: int = 5) -> pd.DataFrame:
    """PPRviz preprocessing and response time vs cluster-size cap k."""
    rows = []
    for k in TABLE7_KS:
        prep = eff.prepare("Twitter", k, n_paths=n_paths)
        pre = eff.preprocessing_time("Tau-Push", prep)
        # no op-budget cut-off here: Table 7 measures only PPRviz, whose
        # paper times (<= 2.1 s) never approach the 1000 s line
        resp = eff.response_time("Tau-Push", prep, op_budget=None)
        rows.append(
            {
                "k": k,
                "hierarchy_s": prep.hierarchy_secs,
                "index_s": prep.taupush_index_secs,
                "preprocessing_s": pre,
                "response_s": resp,
            }
        )
    return pd.DataFrame(rows)


def table8(*, n_paths: int = 5) -> pd.DataFrame:
    """Response time of the 7 PDist variants ("-" = op budget exceeded)."""
    rows = []
    for gname in VARIANT_GRAPHS:
        prep = eff.prepare(gname, K, n_paths=n_paths)
        row: dict = {"graph": gname}
        for v in eff.VARIANTS:
            row[v] = eff.response_time(v, prep)
        rows.append(row)
    return pd.DataFrame(rows).set_index("graph")


def table9() -> pd.DataFrame:
    """Preprocessing time (s) of the variants (hierarchy + index build)."""
    rows = []
    for gname in VARIANT_GRAPHS:
        prep = eff.prepare(gname, K)
        rows.append(
            {"graph": gname, **{v: eff.preprocessing_time(v, prep) for v in eff.VARIANTS}}
        )
    return pd.DataFrame(rows).set_index("graph")


def table10() -> pd.DataFrame:
    """Index size (MiB) of the variants."""
    rows = []
    for gname in VARIANT_GRAPHS:
        prep = eff.prepare(gname, K)
        rows.append(
            {
                "graph": gname,
                **{
                    v: eff.index_size_bytes(v, prep) / (1 << 20)
                    for v in eff.VARIANTS
                },
            }
        )
    return pd.DataFrame(rows).set_index("graph")


def format_tables(tables: dict[str, pd.DataFrame]) -> str:
    """Pretty-print a dict of frames for job stdout / EXPERIMENTS.md."""
    chunks = []
    for name, df in tables.items():
        chunks.append(f"== {name} ==")
        chunks.append(df.to_string())
        chunks.append("")
    return "\n".join(chunks)

"""Fig.-14-style microbenchmark (supports Table 8's ablation narrative).

Per-cluster comparison of Tau-Push vs GFP(tau_max) on the cluster that
contains each graph's maximum-DPR node — the regime where the paper's
filter-refinement optimization pays off (9x-1000x in the paper; the
speedup compresses at our ~1000x-reduced scale but must exceed 2x).
"""
import numpy as np

from benchmarks._cache import print_table
from repro.core.taupush import gfp_taumax_query, taupush_query
from repro.experiments import efficiency as eff
from repro.pprlib.budget import OpBudget


def bench_zfig14_hub_clusters(benchmark):
    def run():
        import pandas as pd

        rows = []
        for name in ("Youtube", "Twitter"):
            prep = eff.prepare(name, 25, n_paths=3)
            g, h, idx = prep.model.g, prep.model.hierarchy, prep.model.index
            hub = int(np.argmax(idx.leaf_dpr))
            sup1 = int(h.leaf_labels[1][hub])
            kids, lfs = h.query_children_leafsets(1, sup1)
            b_tau, b_gfp = OpBudget(), OpBudget()
            taupush_query(g, lfs, idx.leaf_dpr, eff.ALPHA, budget=b_tau,
                          index=idx, children=(0, kids))
            gfp_taumax_query(g, lfs, idx.leaf_dpr, eff.ALPHA, budget=b_gfp)
            rows.append({
                "graph": name,
                "taupush_ops": b_tau.ops,
                "gfp_taumax_ops": b_gfp.ops,
                "speedup": b_gfp.ops / max(1, b_tau.ops),
            })
        return pd.DataFrame(rows)

    df = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Fig. 14 analog (hub-cluster ops) — measured", df)
    assert (df["speedup"] > 2).all()

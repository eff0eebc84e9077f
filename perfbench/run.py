"""PPRviz benchmark: preprocessing and zoom-in response time.

    python3 perfbench/run.py --workload youtube_random --seed 0 --seconds 15 --trace 0

Each invocation is one run of one workload in a fresh process, so every run
pays for and measures set-up, preprocessing and peak memory. The seed only
generates the zoom-in queries; the graphs are the repo's fixed analogs.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see perfbench/README.md for the layer-to-metric map). The exit
code is 1 when any query fails the correctness gate in perfbench/gate.py.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no PPRviz sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import pprviz  # noqa: E402
from repro.core.index import TauPushIndex  # noqa: E402
from repro.graphs.datasets import load_dataset  # noqa: E402
from repro.layout.stress import stress_loss  # noqa: E402

import gate  # noqa: E402
from tracing import Tracer, install_numpy_layers, spark_job_hooks  # noqa: E402

ALPHA = 0.15
SPARK_DPR_ITERS = 60  # dpr_vector_spark's default; the gate's bound uses it

# dataset, hierarchy k, set-up and preprocessing repeats per run, the fixed
# minimum query count per run, and the tail percentile: the highest one
# with at least 10 samples beyond it at that count (max below 20 queries).
WORKLOADS = {
    "twitter_hub": dict(dataset="Twitter", k=25, setup_reps=3, pre_reps=1,
                        min_queries=14, tail_pct=100),
    "youtube_random": dict(dataset="Youtube", k=25, setup_reps=5, pre_reps=3,
                           min_queries=105, tail_pct=90),
    "spark_fbego": dict(dataset="FbEgo", k=8, setup_reps=3, pre_reps=1,
                        min_queries=1, tail_pct=100),
}
# twitter_hub visits the 2 highest-DPR leaves in seeded order. Drawing from
# the top 10 instead made the run's p50 depend on which hubs were drawn
# (interquartile spread over seeds ~0.3), because community sizes differ.
TOP_HUBS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "preprocess_s": "s", "response_mean_ms": "ms",
    "response_p50_ms": "ms", "response_tail_ms": "ms", "index_mib": "MiB",
    "peak_rss_mib": "MiB", "ok_frac": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("_ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_ops"):
        return "ops"
    if name == "layout.final_stress":
        return "stress"
    return "count"


NUMPY_LAYER_METRICS = (
    "graphs.generate_s", "graphs.csr_s", "graphs.expand_s", "graphs.expand_calls",
    "graphs.arcs_expanded", "pprlib.peak_frontier",
    "pprlib.forward_push_s", "pprlib.forward_push_calls",
    "pprlib.forward_push_rounds", "pprlib.forward_push_ops",
    "pprlib.forward_push_ops_per_s",
    "pprlib.backward_push_s", "pprlib.backward_push_calls",
    "pprlib.backward_push_rounds", "pprlib.backward_push_ops",
    "pprlib.backward_push_ops_per_s",
    "core.index_build_s", "core.index_build_ops", "core.index_entries",
    "hierarchy.build_s", "hierarchy.louvain_s", "hierarchy.contract_s",
    "hierarchy.levels", "pprlib.dpr_s",
    "core.taupush_s", "core.taupush_self_s", "core.gfp_s", "core.gfp_calls",
    "hierarchy.lookup_s", "layout.stress_s", "pprviz.query_self_s",
    "core.gbp_targets", "core.gbp_index_hits", "core.gbp_live_s",
    "core.gbp_live_calls", "core.query_ops", "core.root_query_ops",
    "layout.final_stress",
)
SPARK_LAYER_METRICS = (
    "core.spark_query_s", "core.spark_push_calls", "core.spark_push_s",
    "core.spark_jobs", "core.spark_stages", "core.spark_dpr_s",
    "core.spark_dpr_jobs",
)
BENCH_METRICS = ("bench.queries", "bench.repeat_frac", "bench.trace_overhead_frac")
LAYER_UNITS = {
    k: _unit(k) for k in NUMPY_LAYER_METRICS + SPARK_LAYER_METRICS + BENCH_METRICS
}


# -- query streams -----------------------------------------------------------
def random_paths(h, rng):
    """Paper §7.1: random zoom-in paths from the root to a level-1 parent."""
    while True:
        yield h.random_zoom_path(rng)


def hub_sessions(h, leaf_dpr, rng):
    """Fig. 14 regime: drill down from the root to the level-1 supernode
    holding one of the highest-DPR leaves (whose GBP column is indexed).
    One session visits every hub once, in seeded order."""
    top = np.argsort(-leaf_dpr, kind="stable")[:TOP_HUBS]
    while True:
        yield [
            q
            for leaf in rng.permutation(top).tolist()
            for q in [(h.n_levels + 1, None)]
            + [(lvl, int(h.leaf_labels[lvl][leaf])) for lvl in range(h.n_levels, 0, -1)]
        ]


def fixed_queries(sessions, n: int) -> list:
    out = []
    while len(out) < n:
        out.extend(next(sessions))
    return out


# -- timing ------------------------------------------------------------------
def timed(query_fn, queries) -> list[dict]:
    """Run queries one after another (closed loop, one client)."""
    recs = []
    for q in queries:
        t0 = time.perf_counter()
        try:
            out, err = query_fn(*q), None
        except Exception:  # counted as failed, never skipped
            out, err = None, traceback.format_exc()
        recs.append({"q": q, "s": time.perf_counter() - t0, "out": out, "err": err})
    return recs


def timed_pairs(query_fn, queries, install, uninstall):
    """Each query once untraced and once traced, alternating which runs
    first so that warm caches favour neither side."""
    plain, traced = [], []
    for i, q in enumerate(queries):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                install()
            rec = timed(query_fn, [q])[0]
            if with_trace:
                uninstall()
            (traced if with_trace else plain).append(rec)
    return plain, traced


def timed_for(query_fn, sessions, seconds: float, min_queries: int) -> list[dict]:
    """Whole sessions until ``seconds`` have passed and ``min_queries`` ran."""
    recs, t0 = [], time.perf_counter()
    while len(recs) < min_queries or time.perf_counter() - t0 < seconds:
        recs.extend(timed(query_fn, next(sessions)))
    return recs


def latency_metrics(recs, tail_pct) -> dict:
    ms = np.array([r["s"] for r in recs]) * 1e3
    return {
        "response_mean_ms": float(ms.mean()),
        "response_p50_ms": float(np.median(ms)),
        "response_tail_ms": float(np.percentile(ms, tail_pct)),
    }


def repeat_frac(recs) -> float:
    seen, rep = set(), 0
    for r in recs:
        rep += r["q"] in seen
        seen.add(r["q"])
    return rep / len(recs)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_time(fn, reps: int):
    """(last result, seconds of each of ``reps`` calls)."""
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


# -- numpy engine: pprviz.preprocess + PPRvizModel.query ---------------------
def run_numpy(name, cfg, seed, seconds, traced):
    pre, qtr = Tracer(), Tracer()
    generate = load_dataset.__wrapped__  # uncached: every run builds its graph
    if traced:
        install_numpy_layers(pre)
        generate = pre.span("graphs.generate", generate)

    g, setup_times = repeat_time(lambda: generate(cfg["dataset"]).csr(),
                                 cfg["setup_reps"])
    # the fastest build: machine speed drifts over tens of seconds, and the
    # fastest of several builds is least affected by it
    model, pre_times = repeat_time(lambda: pprviz.preprocess(g, cfg["k"]),
                                   1 if traced else cfg["pre_reps"])
    pre.uninstall()

    rng = np.random.default_rng(seed)
    h = model.hierarchy
    if name == "twitter_hub":
        sessions = hub_sessions(h, model.index.leaf_dpr, rng)
    else:
        sessions = random_paths(h, rng)

    def query(parent_level, sup):
        return model.query(parent_level, sup, return_result=True)

    if traced:
        queries = fixed_queries(sessions, cfg["min_queries"])
        recs, traced_recs = timed_pairs(
            query, queries, lambda: install_numpy_layers(qtr), qtr.uninstall
        )
    else:
        recs = timed_for(query, sessions, seconds, cfg["min_queries"])
        traced_recs = []

    checker = gate.QueryGate(model)
    failed = 0
    for r in recs + traced_recs:
        probs = [r["err"]] if r["err"] else checker.problems(r["q"], *r["out"])
        for p in probs:
            print(f"FAILED {r['q']}: {p}", file=sys.stderr)
        failed += bool(probs)
    attempted = len(recs) + len(traced_recs)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "preprocess_s": min(pre_times),
        **latency_metrics(recs, cfg["tail_pct"]),
        "index_mib": model.index.nbytes / 2**20,
        "peak_rss_mib": peak_rss_mib(),
        "ok_frac": 1.0 - failed / attempted,
    }
    if traced:
        ok = [r for r in traced_recs if r["out"] is not None]
        metrics = numpy_layer_metrics(pre, qtr, cfg, ok, recs, traced_recs)
    return attempted, failed, metrics


def numpy_layer_metrics(pre, q, cfg, ok, recs, traced_recs):
    """Per-layer metrics: set-up and preprocessing from ``pre`` (per repeat),
    query-path layers from ``q`` over the traced pass."""
    P, Q = pre.totals, q.totals
    reps = cfg["setup_reps"]
    results = [r["out"][1] for r in ok]
    root = [res.ops for r, res in zip(ok, results) if r["q"][1] is None]
    targets = sum(res.n_gbp_targets for res in results)
    m = {
        "graphs.generate_s": P["graphs.generate_s"] / reps,
        "graphs.csr_s": P["graphs.csr_s"] / reps,
        "graphs.expand_s": Q["graphs.expand_s"],
        "graphs.expand_calls": Q["graphs.expand_calls"],
        "graphs.arcs_expanded": Q["graphs.arcs_expanded"],
        "pprlib.peak_frontier": Q["pprlib.peak_frontier"],
    }
    for kern in ("pprlib.forward_push", "pprlib.backward_push"):
        s = P[f"{kern}_s"] + Q[f"{kern}_s"]
        ops = P[f"{kern}_ops"] + Q[f"{kern}_ops"]
        m[f"{kern}_s"] = s
        m[f"{kern}_calls"] = P[f"{kern}_calls"] + Q[f"{kern}_calls"]
        m[f"{kern}_rounds"] = P[f"{kern}_rounds"] + Q[f"{kern}_rounds"]
        m[f"{kern}_ops"] = ops
        m[f"{kern}_ops_per_s"] = ops / s if s > 0 else 0.0
    m.update({
        "core.index_build_s": P["core.index_build_s"],
        "core.index_build_ops": P["core.index_build_ops"],
        "core.index_entries": P["core.index_entries"],
        "hierarchy.build_s": P["hierarchy.build_s"],
        "hierarchy.louvain_s": P["hierarchy.louvain_s"],
        "hierarchy.contract_s": P["hierarchy.contract_s"],
        "hierarchy.levels": P["hierarchy.levels"],
        "pprlib.dpr_s": P["pprlib.dpr_s"],
        "core.taupush_s": Q["core.taupush_s"],
        "core.taupush_self_s": Q["core.taupush_self_s"],
        "core.gfp_s": Q["core.gfp_s"],
        "core.gfp_calls": Q["core.gfp_calls"],
        "hierarchy.lookup_s": Q["hierarchy.lookup_s"],
        "layout.stress_s": Q["layout.stress_s"],
        "pprviz.query_self_s": Q["pprviz.query_self_s"],
        "core.gbp_targets": targets,
        # a target is served from the index unless taupush_query ran gbp live
        "core.gbp_index_hits": targets - Q["core.gbp_live_calls"],
        "core.gbp_live_s": Q["core.gbp_live_s"],
        "core.gbp_live_calls": Q["core.gbp_live_calls"],
        "core.query_ops": sum(res.ops for res in results),
        "core.root_query_ops": root[0] if root else 0,
        "layout.final_stress": float(np.mean(
            [stress_loss(X, res.pdist) for X, res in (r["out"] for r in ok)]
        )),
    })
    m.update((k, 0) for k in SPARK_LAYER_METRICS)
    return {**m, **bench_metrics(recs, traced_recs)}


def bench_metrics(recs, traced_recs) -> dict:
    base = np.mean([r["s"] for r in recs])
    return {
        "bench.queries": len(recs),
        "bench.repeat_frac": repeat_frac(recs),
        "bench.trace_overhead_frac": np.mean([r["s"] for r in traced_recs]) / base - 1.0,
    }


# -- Spark engine: dpr_vector_spark + taupush_query_spark --------------------
def start_spark():
    """Local SparkSession whose scratch files stay inside the checkout."""
    scratch = ROOT / ".bench_build" / "spark"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    import tempfile

    tempfile.tempdir = None
    cores = min(4, os.cpu_count() or 1)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        f"--driver-java-options -Djava.io.tmpdir={scratch / 'tmp'} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", cores)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.retainedJobs", 1_000_000)
        .config("spark.ui.retainedStages", 1_000_000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except Exception:
                proc.kill()
                proc.wait()


def run_spark(name, cfg, seed, seconds, traced):
    from repro.core import taupush_spark
    from repro.pprlib import dpr as dpr_mod

    pre, qtr = Tracer(), Tracer()
    t0 = time.perf_counter()
    spark = start_spark()
    session_s = time.perf_counter() - t0
    try:
        return _run_spark(spark, session_s, pre, qtr, taupush_spark, dpr_mod,
                          cfg, seed, seconds, traced)
    finally:
        pre.uninstall()
        qtr.uninstall()
        stop_spark(spark)


def _run_spark(spark, session_s, pre, qtr, taupush_spark, dpr_mod, cfg, seed,
               seconds, traced):
    generate = load_dataset.__wrapped__
    if traced:
        install_numpy_layers(pre)
        generate = pre.span("graphs.generate", generate)

    def setup():
        d = generate(cfg["dataset"])
        return d.csr(), d.edge_df(spark).localCheckpoint(eager=True)

    (g, edges), data_times = repeat_time(setup, cfg["setup_reps"])

    def spark_dpr():
        pdf = dpr_mod.dpr_vector_spark(edges, g.n, ALPHA, n_iter=SPARK_DPR_ITERS).toPandas()
        vec = np.zeros(g.n)
        vec[pdf["node"].to_numpy()] = pdf["dpr"].to_numpy()
        return vec

    if traced:
        hooks = spark_job_hooks(pre, spark)
        spark_dpr = pre.span("core.spark_dpr", spark_dpr, **hooks("core.spark_dpr"))
    t0 = time.perf_counter()
    h = pprviz.build_hierarchy(g, cfg["k"])
    leaf_dpr = spark_dpr()  # also warms the JVM before the timed queries
    preprocess_s = time.perf_counter() - t0
    pre.uninstall()

    def query(parent_level, sup):
        _, leaf_sets = h.query_children_leafsets(parent_level, sup)
        pdist, _ = taupush_spark.taupush_query_spark(
            spark, g, edges, leaf_sets, leaf_dpr, ALPHA
        )
        return pprviz.stress_majorization(pdist), pdist

    root = (h.n_levels + 1, None)
    sessions = iter(lambda: [root], None)  # the root query, repeated
    if traced:
        hooks = spark_job_hooks(qtr, spark)

        def install():
            install_numpy_layers(qtr)
            for attr, mname in (("taupush_query_spark", "core.spark_query"),
                                ("push_rounds_spark", "core.spark_push")):
                qtr.patch(taupush_spark, attr, mname, **hooks(mname))

        queries = fixed_queries(sessions, cfg["min_queries"])
        recs, traced_recs = timed_pairs(query, queries, install, qtr.uninstall)
    else:
        recs = timed_for(query, sessions, seconds, cfg["min_queries"])
        traced_recs = []

    probs = gate.spark_dpr_problems(g, ALPHA, leaf_dpr, SPARK_DPR_ITERS)
    failed = bool(probs)
    for r in recs + traced_recs:
        if r["err"]:
            qp = [r["err"]]
        else:
            _, leaf_sets = h.query_children_leafsets(*r["q"])
            qp = gate.spark_query_problems(g, leaf_sets, leaf_dpr, ALPHA,
                                           r["out"][1], r["out"][0])
        probs += qp
        failed += bool(qp)
    for p in probs:
        print(f"FAILED: {p}", file=sys.stderr)
    attempted = 1 + len(recs) + len(traced_recs)  # the DPR vector counts once

    metrics = {
        "setup_s": session_s + statistics.median(data_times),
        "preprocess_s": preprocess_s,
        **latency_metrics(recs, cfg["tail_pct"]),
        "index_mib": TauPushIndex(leaf_dpr=leaf_dpr).nbytes / 2**20,
        "peak_rss_mib": peak_rss_mib(),
        "ok_frac": 1.0 - failed / attempted,
    }
    if traced:
        P, Q = pre.totals, qtr.totals
        ok = [r for r in traced_recs if r["out"] is not None]
        metrics = {k: 0 for k in NUMPY_LAYER_METRICS}
        metrics.update({
            "graphs.generate_s": P["graphs.generate_s"] / cfg["setup_reps"],
            "graphs.csr_s": P["graphs.csr_s"] / cfg["setup_reps"],
            "hierarchy.build_s": P["hierarchy.build_s"],
            "hierarchy.louvain_s": P["hierarchy.louvain_s"],
            "hierarchy.contract_s": P["hierarchy.contract_s"],
            "hierarchy.levels": P["hierarchy.levels"],
            "hierarchy.lookup_s": Q["hierarchy.lookup_s"],
            "layout.stress_s": Q["layout.stress_s"],
            "layout.final_stress": float(np.mean(
                [stress_loss(X, pdist) for X, pdist in (r["out"] for r in ok)]
            )),
            "core.spark_query_s": Q["core.spark_query_s"],
            "core.spark_push_calls": Q["core.spark_push_calls"],
            "core.spark_push_s": Q["core.spark_push_s"],
            "core.spark_jobs": Q["core.spark_query_jobs"] + Q["core.spark_push_jobs"],
            "core.spark_stages": Q["core.spark_query_stages"] + Q["core.spark_push_stages"],
            "core.spark_dpr_s": P["core.spark_dpr_s"],
            "core.spark_dpr_jobs": P["core.spark_dpr_jobs"],
            **bench_metrics(recs, traced_recs),
        })
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    cfg = WORKLOADS[args.workload]
    run = run_spark if args.workload == "spark_fbego" else run_numpy
    attempted, failed, metrics = run(
        args.workload, cfg, args.seed, args.seconds, bool(args.trace)
    )
    units = END_TO_END_UNITS if not args.trace else LAYER_UNITS
    for k, v in metrics.items():
        print(f"{k:32s} {v:>16.6g} {units[k]}")
    print("note: peak_rss_mib is the Python process only; the Spark JVM is excluded")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": int(v) if units[k] in ("count", "ops") else float(v),
                        "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

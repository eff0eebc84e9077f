"""Write BENCH_pprviz.json: preprocessing before and after a change.

    python3 benchmarks/write_bench_pprviz.py --before ../parent-checkout \
        --pairs 3 --out BENCH_pprviz.json

Runs the unchanged ``perfbench/run.py`` of two checkouts, each in fresh
processes: ``--before`` (the baseline) and this checkout (``after``). For
both workloads it makes one traced run per side (``--trace 1``, seed 0)
for the layer counts, then ``--pairs`` interleaved untraced pairs (seeds
11, 12, ...; the side that runs first alternates) for the end-to-end
metrics, and records the medians next to every run. The file name does
not start with ``bench_``, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

AFTER = Path(__file__).resolve().parent.parent
WORKLOADS = ("twitter_hub", "youtube_random")
LAYERS = (
    "core.index_build_s", "core.index_build_ops", "core.index_entries",
    "hierarchy.build_s", "pprlib.dpr_s", "pprlib.backward_push_ops",
    "core.root_query_ops", "core.query_ops", "layout.final_stress",
)
END_TO_END = (
    "setup_s", "preprocess_s", "response_mean_ms", "response_p50_ms",
    "response_tail_ms", "index_mib", "peak_rss_mib", "ok_frac",
)


def perfbench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of ``checkout``'s perfbench: {metric: value}."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout
    rec = json.loads(out.strip().splitlines()[-1])
    if not rec["correct"]:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: a query failed the gate")
    return {k: v["value"] for k, v in rec["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--out", type=Path, default=AFTER / "BENCH_pprviz.json")
    args = ap.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": AFTER}
    report = {
        "machine": {
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        traced = {}
        for side, checkout in sides.items():
            m = perfbench(checkout, workload, 0, args.seconds, 1)
            traced[side] = {k: m[k] for k in LAYERS}
            print(workload, side, "traced", traced[side], file=sys.stderr)
        runs = {side: [] for side in sides}
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                m = perfbench(sides[side], workload, 11 + i, args.seconds, 0)
                runs[side].append({k: m[k] for k in END_TO_END})
                print(workload, side, "seed", 11 + i, runs[side][-1], file=sys.stderr)
        report["workloads"][workload] = {
            "traced_seed0": traced,
            "median": {
                side: {k: statistics.median(r[k] for r in rs) for k in END_TO_END}
                for side, rs in runs.items()
            },
            "runs": runs,
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

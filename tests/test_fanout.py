"""A heavy query computes its GFP rows in forked worker processes; its
DPPR, PDist and ops must equal the in-process loop's. One worker set per
graph is forked once, by its index build or its first fanned query, and
reused by every later fanned call on that graph; none may be forked where
the gate says it should not, and none may outlive ``fanout.close()``, a
failed call or the interpreter."""
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import fanout as fanout_mod
from repro.core import taupush as taupush_mod
from repro.core.fanout import fan_out, usable_cpus
from repro.core.index import build_taupush_index
from repro.core.taupush import gfp_taumax_query, taupush_query
from repro.graphs.csr import CSRGraph
from repro.hierarchy.supergraph import build_hierarchy
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprviz import ALPHA, preprocess
from tests.test_taupush_contract import every_query

REPO = Path(__file__).resolve().parents[1]


def worker_pids() -> set[int]:
    """This process's live children that run its own command line: the
    forked workers, not the Spark JVM (zombies read an empty one)."""
    me = Path("/proc/self/cmdline").read_bytes()
    pids = set()
    for children in Path("/proc/self/task").glob("*/children"):
        for pid in children.read_text().split():
            try:
                if Path(f"/proc/{pid}/cmdline").read_bytes() == me:
                    pids.add(int(pid))
            except OSError:  # exited meanwhile
                pass
    return pids


def forbid_forks(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)


@pytest.fixture(scope="module", params=[
    ("fbego", 5), ("fbego", 25), ("twego", 5), ("twego", 25), ("messy", 5), ("messy", 25),
], ids=lambda p: f"{p[0]}-k{p[1]}")
def model(request):
    name, k = request.param
    return preprocess(request.getfixturevalue(name), k)


def query_runs(model):
    """(label, call) of every hierarchy query: Tau-Push with the index,
    Tau-Push with live GBP, and GFP(tau_max)."""
    h, idx = model.hierarchy, model.index
    for q in every_query(h):
        kids, leaf_sets = h.query_children_leafsets(*q)
        child_level = h.n_levels if q[1] is None else q[0] - 1
        args = (model.g, leaf_sets, idx.leaf_dpr, ALPHA)
        yield (q, "index", len(kids)), partial(
            taupush_query, *args, index=idx, children=(child_level, kids)
        )
        yield (q, "live", len(kids)), partial(taupush_query, *args)
        yield (q, "taumax", len(kids)), partial(gfp_taumax_query, *args)


def root_run(m):
    _, leaf_sets = m.hierarchy.query_children_leafsets(m.hierarchy.n_levels + 1, None)
    return partial(taupush_query, m.g, leaf_sets, m.index.leaf_dpr, ALPHA)


def test_fanout_matches_serial(model, forks, monkeypatch):
    cpus = usable_cpus()
    built = worker_pids()  # the set of the module-scoped index build, if alive
    fanned_any = False
    for (q, served_by, k), run in query_runs(model):
        monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", math.inf)
        serial = run()
        monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
        fanned = run()
        fanned_any |= k > 1
        # one set: the build's, else forked at the first fanned query;
        # reused by the rest
        if built:
            assert not forks and worker_pids() == built, (q, served_by)
        else:
            assert len(forks) == (cpus if cpus > 1 and fanned_any else 0), (q, served_by)
            assert worker_pids() == set(forks), (q, served_by)
        assert np.array_equal(fanned.dppr, serial.dppr), (q, served_by)
        assert np.array_equal(fanned.pdist, serial.pdist), (q, served_by)
        assert fanned.ops == serial.ops, (q, served_by)
    fanout_mod.close()
    assert worker_pids() == set()


def test_new_graph_reforks(fbego, twego, forks, monkeypatch):
    """Later queries on one graph reuse its set; a query on another graph
    closes that set and forks its own."""
    fb, tw = (root_run(preprocess(g, 25)) for g in (fbego, twego))
    want = fb(), tw()
    forks.clear()  # the index builds'
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    cpus = usable_cpus() if usable_cpus() > 1 else 0
    got = fb(), fb()
    first = worker_pids()
    assert len(forks) == cpus and first == set(forks)
    got += (tw(),)
    assert len(forks) == 2 * cpus and worker_pids() == set(forks[cpus:])
    assert not first & worker_pids()
    for res, ref in zip(got, (want[0], want[0], want[1])):
        assert np.array_equal(res.dppr, ref.dppr) and res.ops == ref.ops
    fanout_mod.close()
    assert worker_pids() == set()


def test_query_reuses_the_index_builds_set(twego, forks, monkeypatch):
    """``preprocess`` forks the graph's one set for its index build; a
    fanned query on that graph runs in it and forks nothing more."""
    m = preprocess(twego, 25)
    assert len(m.index.gbp_store) > 1
    cpus = usable_cpus() if usable_cpus() > 1 else 0
    built = worker_pids()
    assert len(forks) == cpus and built == set(forks)
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", math.inf)
    want = root_run(m)()
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    got = root_run(m)()
    assert len(forks) == cpus and worker_pids() == built
    assert np.array_equal(got.dppr, want.dppr) and got.ops == want.ops
    fanout_mod.close()
    assert worker_pids() == set()


def test_one_cpu_runs_in_process(fbego, monkeypatch):
    run = root_run(preprocess(fbego, 25))
    want = run()
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forbid_forks(monkeypatch)
    got = run()
    assert np.array_equal(got.dppr, want.dppr) and got.ops == want.ops


def test_below_gate_runs_in_process(fbego, monkeypatch):
    """The real gate: no FbEgo query reaches FANOUT_MIN_ARCS (the largest
    bound, a GFP(tau_max) one, is 4.9e6)."""
    m = preprocess(fbego, 25)
    forbid_forks(monkeypatch)
    for _, run in query_runs(m):
        run()


class DuckGraph:
    """A graph that is not a CSRGraph (as a SparkGraph is not), serving
    the same propagations."""

    def __init__(self, g):
        self.n, self.m, self.out_deg, self.propagate = g.n, g.m, g.out_deg, g.propagate


def test_non_csr_graph_runs_in_process(fbego, monkeypatch):
    m = preprocess(fbego, 25)
    _, leaf_sets = m.hierarchy.query_children_leafsets(m.hierarchy.n_levels + 1, None)
    want = taupush_query(fbego, leaf_sets, m.index.leaf_dpr, ALPHA)
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    forbid_forks(monkeypatch)
    got = taupush_query(DuckGraph(fbego), leaf_sets, m.index.leaf_dpr, ALPHA)
    assert np.array_equal(got.dppr, want.dppr) and got.ops == want.ops


def test_non_csr_graph_builds_in_process(twego, monkeypatch):
    """The GBP index build on a graph that is not a CSRGraph forks
    nothing and stores the CSR build's entries with its ``build_ops``."""
    h = build_hierarchy(twego, 25, seed=0)
    want = build_taupush_index(twego, h, ALPHA)
    assert len(want.gbp_store) == 12
    forbid_forks(monkeypatch)
    got = build_taupush_index(DuckGraph(twego), h, ALPHA)
    assert list(got.gbp_store) == list(want.gbp_store)
    for key, (sids, vals) in want.gbp_store.items():
        assert np.array_equal(got.gbp_store[key][0], sids)
        assert np.array_equal(got.gbp_store[key][1], vals)
    assert got.build_ops == want.build_ops


def test_fanned_query_honours_budget(fbego, forks, monkeypatch):
    """GFP(tau_max) charges only GFP rows: a limit one op short of the
    query's total raises at the last row; the total does not raise. The
    raise leaves the graph's worker set (the index build's, or the first
    fanned query's) alive for the next query."""
    m = preprocess(fbego, 25)
    run = next(run for (_, kind, _), run in query_runs(m) if kind == "taumax")
    total = run().ops
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    with pytest.raises(OpBudgetExceeded) as raised:
        run(budget=OpBudget(total - 1))
    assert raised.value.ops == total
    workers = worker_pids()
    assert workers == set(forks)
    assert run(budget=OpBudget(total)).ops == total
    assert worker_pids() == workers and len(forks) == len(workers)
    fanout_mod.close()
    assert worker_pids() == set()


# a graph with 10 nodes and no arcs: ``fan_out`` forks only for a CSRGraph
TEN_NODES = CSRGraph(10, np.empty(0), np.empty(0))


def _job(g, scale, job):
    if job == "raise":
        raise ValueError("bad job")
    if job == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if job == "over budget":
        OpBudget(4).charge(5)
    return (g.n + job) * scale


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs, whatever the machine has: three workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def test_job_error_reraises_and_set_stays_usable(three_cpus, forks):
    assert fan_out(_job, TEN_NODES, range(6), (2,)) == [20, 22, 24, 26, 28, 30]
    with pytest.raises(ValueError) as raised:
        fan_out(_job, TEN_NODES, [0, 1, "raise", 3, 4, 5], (1,))
    assert str(raised.value) == "bad job"
    assert "in fan-out worker" in raised.value.__notes__[0]
    assert fan_out(_job, TEN_NODES, range(6), (3,)) == [30, 33, 36, 39, 42, 45]
    assert len(forks) == 3 and worker_pids() == set(forks)
    fanout_mod.close()
    assert worker_pids() == set()


def test_budget_error_pickles():
    err = pickle.loads(pickle.dumps(OpBudgetExceeded(5, 4)))
    assert type(err) is OpBudgetExceeded
    assert (err.ops, err.limit, str(err)) == (5, 4, "op budget exceeded: 5 > 4")


def test_budget_error_crosses_the_pipe(three_cpus, forks):
    """A worker job that exhausts its budget raises OpBudgetExceeded here,
    with its ops and limit, not a RuntimeError that only names it."""
    with pytest.raises(OpBudgetExceeded) as raised:
        fan_out(_job, TEN_NODES, [0, "over budget", 2], (1,))
    assert (raised.value.ops, raised.value.limit) == (5, 4)
    assert "in fan-out worker" in raised.value.__notes__[0]
    assert len(forks) == 3 and worker_pids() == set(forks)
    fanout_mod.close()
    assert worker_pids() == set()


def test_killed_worker_raises_and_next_call_reforks(three_cpus, forks):
    assert fan_out(_job, TEN_NODES, range(6), (1,)) == [10, 11, 12, 13, 14, 15]
    with pytest.raises(RuntimeError, match="killed by signal 9 mid-call"):
        fan_out(_job, TEN_NODES, [0, 1, "die", 3, 4, 5], (1,))
    assert worker_pids() == set()
    assert fan_out(_job, TEN_NODES, range(6), (1,)) == [10, 11, 12, 13, 14, 15]
    assert len(forks) == 6 and worker_pids() == set(forks[3:])
    fanout_mod.close()
    assert worker_pids() == set()


def test_one_cpu_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forbid_forks(monkeypatch)
    assert fan_out(_job, TEN_NODES, range(6), (2,)) == [20, 22, 24, 26, 28, 30]
    with pytest.raises(ValueError) as raised:
        fan_out(_job, TEN_NODES, [0, "raise"], (1,))
    assert str(raised.value) == "bad job"


EXIT_SCRIPT = """
import atexit
import os
import sys

# registered first, so it runs last: after the repro modules' own exit hooks
atexit.register(lambda: print("left:", *sys.modules["tests.test_fanout"].worker_pids()))

from repro.core import taupush
from repro.graphs.datasets import load_dataset
from repro.pprviz import preprocess
from tests.test_fanout import root_run, worker_pids

os.sched_getaffinity = lambda pid: {0, 1}
m = preprocess(load_dataset("FbEgo").csr(), 25)
taupush.FANOUT_MIN_ARCS = 0
root_run(m)()
print("workers:", *worker_pids())
"""


def test_no_worker_outlives_the_interpreter():
    """A script that fans a query out and returns without ``close()``:
    its exit closes and reaps the workers, and none is left running."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    out = subprocess.run(
        [sys.executable, "-c", EXIT_SCRIPT], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    assert out[-1] == "left:"
    pids = [int(pid) for pid in out[-2].removeprefix("workers:").split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(Path(f"/proc/{pid}").exists() for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(Path(f"/proc/{pid}").exists() for pid in pids)

"""A heavy query computes its GFP rows in forked worker processes; its
DPPR, PDist and ops must equal the in-process loop's, and no pool may
start, or outlive the query, where the gate says it should not."""
import math
import multiprocessing as mp
import os
from functools import partial

import numpy as np
import pytest

from repro.core import fanout as fanout_mod
from repro.core import taupush as taupush_mod
from repro.core.taupush import gfp_taumax_query, taupush_query
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprviz import preprocess
from tests.test_taupush_contract import every_query

ALPHA = 0.15


@pytest.fixture(scope="module", params=[
    ("fbego", 5), ("fbego", 25), ("twego", 5), ("twego", 25), ("messy", 5), ("messy", 25),
], ids=lambda p: f"{p[0]}-k{p[1]}")
def model(request):
    name, k = request.param
    return preprocess(request.getfixturevalue(name), k, alpha=ALPHA)


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


def forbid_pools(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a query started a process pool")

    monkeypatch.setattr(fanout_mod, "ProcessPoolExecutor", no_pool)


def test_fanout_matches_serial(model, monkeypatch):
    pools = []

    class Pool(fanout_mod.ProcessPoolExecutor):
        def __init__(self, workers, *args):
            pools.append(workers)
            super().__init__(workers, *args)

    monkeypatch.setattr(fanout_mod, "ProcessPoolExecutor", Pool)
    cpus = fanout_mod.usable_cpus()
    for (q, served_by, k), run in query_runs(model):
        monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", math.inf)
        serial = run()
        assert pools == []
        monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
        fanned = run()
        assert mp.active_children() == []
        assert pools == ([min(cpus, k)] if min(cpus, k) > 1 else []), (q, served_by)
        pools.clear()
        assert np.array_equal(fanned.dppr, serial.dppr), (q, served_by)
        assert np.array_equal(fanned.pdist, serial.pdist), (q, served_by)
        assert fanned.ops == serial.ops, (q, served_by)


def test_one_cpu_runs_in_process(fbego, monkeypatch):
    m = preprocess(fbego, 25, alpha=ALPHA)
    _, run = next(query_runs(m))
    want = run()
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forbid_pools(monkeypatch)
    got = run()
    assert np.array_equal(got.dppr, want.dppr) and got.ops == want.ops


def test_below_gate_runs_in_process(fbego, monkeypatch):
    """The real gate: no FbEgo query comes near FANOUT_MIN_ARCS."""
    m = preprocess(fbego, 25, alpha=ALPHA)
    forbid_pools(monkeypatch)
    for _, run in query_runs(m):
        run()


class DuckGraph:
    """A graph that is not a CSRGraph (as a SparkGraph is not), serving
    the same propagations."""

    def __init__(self, g):
        self.n, self.m, self.out_deg, self.propagate = g.n, g.m, g.out_deg, g.propagate


def test_non_csr_graph_runs_in_process(fbego, monkeypatch):
    m = preprocess(fbego, 25, alpha=ALPHA)
    _, leaf_sets = m.hierarchy.query_children_leafsets(m.hierarchy.n_levels + 1, None)
    want = taupush_query(fbego, leaf_sets, m.index.leaf_dpr, ALPHA)
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    forbid_pools(monkeypatch)
    got = taupush_query(DuckGraph(fbego), leaf_sets, m.index.leaf_dpr, ALPHA)
    assert np.array_equal(got.dppr, want.dppr) and got.ops == want.ops


def test_fanned_query_honours_budget(fbego, monkeypatch):
    """GFP(tau_max) charges only GFP rows: a limit one op short of the
    query's total raises at the last row; the total does not raise."""
    m = preprocess(fbego, 25, alpha=ALPHA)
    run = next(run for (_, kind, _), run in query_runs(m) if kind == "taumax")
    total = run().ops
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    with pytest.raises(OpBudgetExceeded) as raised:
        run(budget=OpBudget(total - 1))
    assert raised.value.ops == total
    assert mp.active_children() == []
    assert run(budget=OpBudget(total)).ops == total
    assert mp.active_children() == []

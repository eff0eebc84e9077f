"""The GBP index build fans its columns out over worker processes; the
index it returns must be the serial build's, entry for entry."""
import math
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core import index as index_mod
from repro.core.gbp import gbp
from repro.core.index import TauPushIndex, _siblings, build_taupush_index
from repro.core.taupush import membership_arrays, taupush_params
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.dpr import dpr_vector_local, supernode_dpr
from repro.pprviz import preprocess

ALPHA = 0.15


def serial_reference(g, h, alpha, k, *, budget=None):
    """The build loop as it was before the columns ran in workers."""
    budget = budget or OpBudget()
    leaf_dpr = dpr_vector_local(g, alpha)
    budget.charge(g.m * 40)  # power-iteration preprocessing cost
    idx = TauPushIndex(leaf_dpr=leaf_dpr)
    tau = 1.0 / math.sqrt(k * g.n)
    for level in range(0, h.n_levels + 1):
        taus = supernode_dpr(leaf_dpr, h.leaf_labels[level])
        for sup in np.flatnonzero(taus > tau):
            sibs = _siblings(h, level, int(sup))
            leaf_sets = [h.leaf_set(level, int(s)) for s in sibs]
            member, sizes = membership_arrays(g.n, leaf_sets)
            _, _, rmax_b = taupush_params(g, leaf_sets, None, None)
            fs = h.leaf_set(level, int(sup))
            col = gbp(g, fs, member, sizes, rmax_b, alpha, budget=budget)
            idx.gbp_store[(level, int(sup))] = (
                sibs.astype(np.int64),
                col.astype(np.float64),
            )
    idx.build_ops = budget.ops
    return idx


@pytest.fixture(scope="module", params=[("FbEgo", 25), ("Youtube", 25)],
                ids=["FbEgo", "Youtube"])
def built(request):
    name, k = request.param
    g = load_dataset(name).csr()
    h = build_hierarchy(g, k, seed=0)
    return g, h, k, serial_reference(g, h, ALPHA, k)


def _assert_same_index(idx, ref):
    assert list(idx.gbp_store) == list(ref.gbp_store)
    for key, (sids, col) in ref.gbp_store.items():
        got_sids, got_col = idx.gbp_store[key]
        assert np.array_equal(got_sids, sids) and got_sids.dtype == sids.dtype
        assert np.array_equal(got_col, col) and got_col.dtype == col.dtype
    assert np.array_equal(idx.leaf_dpr, ref.leaf_dpr)
    assert idx.build_ops == ref.build_ops


def test_parallel_build_matches_serial(built, monkeypatch):
    g, h, k, ref = built
    assert len(ref.gbp_store) > 1  # enough jobs to fan out
    pools = []

    class Pool(index_mod.ProcessPoolExecutor):
        def __init__(self, workers, *args):
            pools.append(workers)
            super().__init__(workers, *args)

    monkeypatch.setattr(index_mod, "ProcessPoolExecutor", Pool)
    _assert_same_index(build_taupush_index(g, h, ALPHA, k), ref)
    cpus = len(os.sched_getaffinity(0))
    assert pools == ([min(cpus, len(ref.gbp_store))] if cpus > 1 else [])
    assert mp.active_children() == []


def test_single_cpu_builds_in_process(built, monkeypatch):
    """One usable CPU: the plain serial map, no pool."""
    g, h, k, ref = built
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU build started a process pool")

    monkeypatch.setattr(index_mod, "ProcessPoolExecutor", no_pool)
    _assert_same_index(build_taupush_index(g, h, ALPHA, k), ref)


@pytest.mark.parametrize("share", [0.01, 0.5, 0.97])
def test_limited_budget_raises_at_serial_ops(built, share):
    """A budget that runs out raises with the serial build's op count,
    whether it binds in the DPR charge or inside some column, and leaves
    no worker behind."""
    g, h, k, ref = built
    limit = int(ref.build_ops * share)
    with pytest.raises(OpBudgetExceeded) as want:
        serial_reference(g, h, ALPHA, k, budget=OpBudget(limit))
    with pytest.raises(OpBudgetExceeded) as got:
        build_taupush_index(g, h, ALPHA, k, budget=OpBudget(limit))
    assert (got.value.ops, got.value.limit) == (want.value.ops, limit)
    assert mp.active_children() == []


def test_budget_exactly_enough(built):
    g, h, k, ref = built
    budget = OpBudget(ref.build_ops)
    assert build_taupush_index(g, h, ALPHA, k, budget=budget).build_ops == ref.build_ops


def test_preprocess_leaves_no_worker_running(fbego):
    model = preprocess(fbego, 25)
    assert len(model.index.gbp_store) > 1
    assert mp.active_children() == []

"""The GBP index build fans its columns out over its graph's worker
processes; the index it returns must be the serial reference build's,
entry for entry, minus the columns that no hierarchy query reads."""
import math
import os

import numpy as np
import pytest

from repro.core import fanout
from repro.core.fanout import usable_cpus
from repro.core.gbp import gbp
from repro.core.index import TauPushIndex, build_taupush_index
from repro.core.taupush import membership_arrays
from repro.graphs.datasets import load_dataset
from repro.hierarchy.supergraph import build_hierarchy
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import dpr_vector_local, supernode_dpr
from repro.pprviz import ALPHA, preprocess
from tests.test_fanout import forbid_forks, worker_pids
from tests.test_index import hierarchy_gbp_targets


def serial_reference(g, h, alpha, k):
    """The serial build loop with one tau = 1/sqrt(k n) for every level,
    which also stores columns no query reads (|S| <= k). Returns the index
    and the ops of each column."""
    budget = OpBudget()
    leaf_dpr = dpr_vector_local(g, alpha, budget=budget)
    idx = TauPushIndex(leaf_dpr=leaf_dpr)
    col_ops = {}
    tau = 1.0 / math.sqrt(k * g.n)
    for level in range(0, h.n_levels + 1):
        taus = supernode_dpr(leaf_dpr, h.leaf_labels[level])
        for sup in np.flatnonzero(taus > tau):
            if level == h.n_levels:
                sibs = np.arange(h.n_supernodes(level))
            else:
                sibs = h.children(level + 1, int(h.parent_labels(level)[sup]))
            leaf_sets = [h.leaf_set(level, int(s)) for s in sibs]
            member, sizes = membership_arrays(g.n, leaf_sets)
            eps, delta = 1.0 - 1.0 / math.e, 1.0 / (10.0 * len(sibs))
            max_avg_deg = max(
                (g.out_deg[fs].mean() for fs in leaf_sets if len(fs)), default=0.0
            )
            rmax_b = eps * delta / max_avg_deg if max_avg_deg > 0 else math.inf
            fs = h.leaf_set(level, int(sup))
            ops_before = budget.ops
            col = gbp(g, fs, member, sizes, rmax_b, alpha, budget=budget)
            col_ops[(level, int(sup))] = budget.ops - ops_before
            idx.gbp_store[(level, int(sup))] = (
                sibs.astype(np.int64),
                col.astype(np.float64),
            )
    idx.build_ops = budget.ops
    return idx, col_ops


@pytest.fixture(scope="module", params=[("FbEgo", 25), ("TwEgo", 25), ("Youtube", 25)],
                ids=["FbEgo", "TwEgo", "Youtube"])
def built(request):
    """(g, h, reference index, keys some query reads, their build ops)."""
    name, k = request.param
    g = load_dataset(name).csr()
    h = build_hierarchy(g, k, seed=0)
    ref, col_ops = serial_reference(g, h, ALPHA, k)
    targets = hierarchy_gbp_targets(g, h, ref.leaf_dpr)
    kept = [key for key in ref.gbp_store if key in targets]
    unread_ops = sum(ops for key, ops in col_ops.items() if key not in targets)
    return g, h, ref, kept, ref.build_ops - unread_ops


def _assert_reference_minus_unread(idx, ref, kept, ops):
    assert list(idx.gbp_store) == kept
    for key in kept:
        sids, col = ref.gbp_store[key]
        got_sids, got_col = idx.gbp_store[key]
        assert np.array_equal(got_sids, sids) and got_sids.dtype == sids.dtype
        assert np.array_equal(got_col, col) and got_col.dtype == col.dtype
    assert np.array_equal(idx.leaf_dpr, ref.leaf_dpr)
    assert idx.build_ops == ops


def test_parallel_build_matches_serial(built, forks):
    """One worker per usable CPU, forked once; the set stays alive for the
    graph's queries until ``fanout.close()``."""
    g, h, ref, kept, ops = built
    _assert_reference_minus_unread(build_taupush_index(g, h, ALPHA), ref, kept, ops)
    cpus = usable_cpus()
    assert len(forks) == (cpus if cpus > 1 and len(kept) > 1 else 0)
    assert worker_pids() == set(forks)
    fanout.close()
    assert worker_pids() == set()


def test_single_cpu_builds_in_process(built, monkeypatch):
    """One usable CPU: the plain serial loop, no fork."""
    g, h, ref, kept, ops = built
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forbid_forks(monkeypatch)
    _assert_reference_minus_unread(build_taupush_index(g, h, ALPHA), ref, kept, ops)


def test_preprocess_workers_live_until_close(twego, forks):
    """A second build on the same graph reuses the first one's set."""
    model = preprocess(twego, 25)
    assert len(model.index.gbp_store) > 1
    assert len(forks) == (usable_cpus() if usable_cpus() > 1 else 0)
    assert worker_pids() == set(forks)
    preprocess(twego, 25)
    assert worker_pids() == set(forks)
    fanout.close()
    assert worker_pids() == set()

"""Tau-Push indexing scheme (paper §4.3).

The index holds (i) the n-entry DPR vector and (ii) precomputed GBP results
for every supernode — at any hierarchy level — whose DPR exceeds
tau = 1/sqrt(k n). The paper's index is O(n + k sqrt(k n)) because a GBP
result is stored only w.r.t. O(k) *source supernodes*: in the hierarchy, a
query that contains target V_j as a child always has S = the children of
V_j's parent, i.e. V_j's siblings. So the stored entry for (level, sup) is
the aggregated DPPR column over exactly those siblings, computed with the
query's own Eq. (6) rmax_b (which is determined by the sibling set).

``nbytes`` feeds Table 10.
"""
from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.gbp import gbp
from repro.core.taupush import membership_arrays, taupush_params
from repro.graphs.csr import CSRGraph
from repro.hierarchy.supergraph import Hierarchy
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import dpr_vector_local, supernode_dpr


@dataclass
class TauPushIndex:
    """Precomputed DPR vector + per-target GBP columns over its siblings.

    ``gbp_store[(level, sup)] = (sibling_ids, values)`` with
    ``values[i] = pi_hat_d(sibling_i, sup)``.
    """

    leaf_dpr: np.ndarray
    gbp_store: dict = field(default_factory=dict)
    build_ops: int = 0

    @property
    def nbytes(self) -> int:
        total = int(self.leaf_dpr.nbytes)
        for sids, vals in self.gbp_store.values():
            total += int(sids.nbytes + vals.nbytes)
        return total

    @property
    def dpr_nbytes(self) -> int:
        return int(self.leaf_dpr.nbytes)

    def lookup(
        self, level: int, sup: int, kids: np.ndarray
    ) -> np.ndarray | None:
        """The stored column toward (level, sup) in ``kids`` order, or None
        when there is no entry or it misses one of ``kids``."""
        entry = self.gbp_store.get((level, sup))
        if entry is None:
            return None
        sids, vals = entry
        row = {sid: i for i, sid in enumerate(sids.tolist())}
        rows = [row.get(int(kid)) for kid in kids]
        return None if None in rows else vals[rows]


def _siblings(h: Hierarchy, level: int, sup: int) -> np.ndarray:
    """Supernode ids at ``level`` sharing ``sup``'s parent (root at top)."""
    if level == h.n_levels:
        return np.arange(h.n_supernodes(level))
    parent = int(h.parent_labels(level)[sup])
    return h.children(level + 1, parent)


def _gbp_column(g, h, alpha, eps, delta, level, sup, budget):
    """The stored entry for (level, sup): its sibling ids and the GBP
    column toward it over them, with the siblings' Eq. (6) rmax_b."""
    sibs = _siblings(h, level, sup)
    leaf_sets = [h.leaf_set(level, int(s)) for s in sibs]
    member, sizes = membership_arrays(g.n, leaf_sets)
    _, _, rmax_b = taupush_params(g, leaf_sets, eps, delta)
    fs = h.leaf_set(level, sup)
    col = gbp(g, fs, member, sizes, rmax_b, alpha, budget=budget)
    return sibs.astype(np.int64), col.astype(np.float64)


_build_args: tuple = ()  # (g, h, alpha, eps, delta) in a build worker


def _init_worker(*args) -> None:
    global _build_args
    _build_args = args


def _column_job(job: tuple[int, int], args: tuple = ()):
    """One column on its own budget: (sibling ids, column, ops)."""
    budget = OpBudget()
    return (*_gbp_column(*(args or _build_args), *job, budget), budget.ops)


def build_taupush_index(
    g: CSRGraph,
    h: Hierarchy,
    alpha: float,
    k: int,
    *,
    eps: float | None = None,
    delta: float | None = None,
    budget: OpBudget | None = None,
) -> TauPushIndex:
    """Build the Tau-Push index for one graph + hierarchy.

    tau follows the paper default 1/sqrt(k n); each stored GBP column uses
    the ``taupush_params`` rmax_b of its own sibling set, so query-time
    lookups return exactly what a live GBP inside Algorithm 1 would.

    The columns are independent, so they are computed in forked worker
    processes (one per usable CPU; each push stays single-threaded), which
    inherit ``g`` and ``h``. Results are charged and stored in job order,
    so the entries, their order and ``build_ops`` equal a serial build,
    and a limited ``budget`` raises at the same op count.
    """
    budget = budget or OpBudget()
    leaf_dpr = dpr_vector_local(g, alpha)
    budget.charge(g.m * 40)  # power-iteration preprocessing cost
    idx = TauPushIndex(leaf_dpr=leaf_dpr)
    tau = 1.0 / math.sqrt(k * g.n)
    jobs = [
        (level, int(sup))
        for level in range(0, h.n_levels + 1)
        for sup in np.flatnonzero(supernode_dpr(leaf_dpr, h.leaf_labels[level]) > tau)
    ]
    args = (g, h, alpha, eps, delta)
    # one worker per usable CPU, at most one per job; 1 builds serially
    cpus = len(os.sched_getaffinity(0)) if "fork" in mp.get_all_start_methods() else 1
    workers = min(cpus, len(jobs))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # fork, so the workers share g and h instead of unpickling a
            # copy each; they run only numpy pushes and take no lock that
            # another thread of this process could hold
            pool = ProcessPoolExecutor(workers, mp.get_context("fork"), _init_worker, args)
            # joins the workers; after an early raise it first drops the
            # columns not yet started
            stack.callback(pool.shutdown, cancel_futures=True)
            columns = pool.map(_column_job, jobs)
        else:
            columns = map(functools.partial(_column_job, args=args), jobs)
        for job, (sibs, col, ops) in zip(jobs, columns):
            if ops > budget.remaining():
                # recompute on the caller's budget: it raises where a
                # serial build would
                _gbp_column(*args, *job, budget)
            budget.charge(ops)
            idx.gbp_store[job] = (sibs, col)
    idx.build_ops = budget.ops
    return idx

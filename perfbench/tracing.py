"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions and methods of the ``repro`` layers by
rebinding the name their caller looks up (a module attribute or a class
attribute). Nothing in ``repro`` changes, and the untraced run installs no
wrapper at all. Every wrapped call is a span; spans nest through a stack so
each layer's self time is its span minus the spans of the calls it made.
Counts (ops, rounds, arcs, Spark jobs) are read at the same boundaries.
"""
from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict

from repro import pprviz
from repro.core import gbp as gbp_mod
from repro.core import gfp as gfp_mod
from repro.core import index as index_mod
from repro.core import taupush as taupush_mod
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import Dataset
from repro.hierarchy import supergraph
from repro.hierarchy.supergraph import Hierarchy
from repro.pprlib.budget import OpBudget


class Tracer:
    """Span stack plus per-name totals: ``<name>_s``, ``<name>_self_s``,
    ``<name>_calls`` and any counters the hooks add."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def span(self, name: str, fn, *, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args, kwargs)`` may adjust the call and returns a state
        object; ``after(state, args, kwargs, result)`` adds counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                self.totals[f"{name}_s"] += dur
                self.totals[f"{name}_self_s"] += dur - frame[0]
                self.totals[f"{name}_calls"] += 1
            if after:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Rebind ``owner.attr`` to a traced wrapper until :meth:`uninstall`."""
        orig = owner.__dict__[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.span(name, orig, **hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def peak(self, key: str, value: float) -> None:
        self.totals[key] = max(self.totals[key], value)


# -- hooks that read counts at a layer boundary -----------------------------
def _with_budget(args, kwargs):
    """Make sure a push kernel charges a budget we can read the delta of."""
    if kwargs.get("budget") is None:
        kwargs["budget"] = OpBudget()
    return kwargs["budget"].ops


def install_numpy_layers(tr: Tracer) -> None:
    """Wrap the graph, hierarchy, push, core, layout and pprviz layers."""

    def expand_after(state, args, kwargs, result):
        tr.add("graphs.arcs_expanded", len(result[0]))
        tr.peak("pprlib.peak_frontier", len(args[1]))

    def push_after(prefix):
        def after(ops_before, args, kwargs, result):
            tr.add(f"{prefix}_ops", kwargs["budget"].ops - ops_before)
            tr.add(f"{prefix}_rounds", result[2])

        return after

    def index_after(state, args, kwargs, idx):
        tr.add("core.index_build_ops", idx.build_ops)
        tr.add("core.index_entries", len(idx.gbp_store))

    def hierarchy_after(state, args, kwargs, h):
        tr.add("hierarchy.levels", h.n_levels)

    tr.patch(CSRGraph, "out_edges_of", "graphs.expand", after=expand_after)
    tr.patch(CSRGraph, "in_edges_of", "graphs.expand", after=expand_after)
    tr.patch(Dataset, "csr", "graphs.csr")
    tr.patch(gfp_mod, "forward_push", "pprlib.forward_push",
             before=_with_budget, after=push_after("pprlib.forward_push"))
    tr.patch(gbp_mod, "backward_push", "pprlib.backward_push",
             before=_with_budget, after=push_after("pprlib.backward_push"))
    tr.patch(index_mod, "dpr_vector_local", "pprlib.dpr")
    tr.patch(pprviz, "build_hierarchy", "hierarchy.build", after=hierarchy_after)
    tr.patch(supergraph, "louvain_plus_level", "hierarchy.louvain")
    tr.patch(supergraph, "contract", "hierarchy.contract")
    tr.patch(pprviz, "build_taupush_index", "core.index_build", after=index_after)
    tr.patch(Hierarchy, "query_children_leafsets", "hierarchy.lookup")
    tr.patch(pprviz.PPRvizModel, "query", "pprviz.query")
    tr.patch(pprviz, "taupush_query", "core.taupush")
    tr.patch(taupush_mod, "gfp", "core.gfp")
    tr.patch(taupush_mod, "gbp", "core.gbp_live")
    tr.patch(pprviz, "stress_majorization", "layout.stress")


def spark_job_hooks(tr: Tracer, spark):
    """``hooks(name)`` -> span hooks that run each call in its own job group.

    Jobs and stages of the group are counted from the status tracker when
    the call returns. The caller's group is restored afterwards, so a
    query's own jobs (outside its push calls) land in the query's group.
    """
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    groups: list[str] = []
    ids = itertools.count()

    def hooks(name: str) -> dict:
        def before(args, kwargs):
            group = f"{name}-{next(ids)}"
            groups.append(group)
            sc.setJobGroup(group, name)
            return group

        def after(group, args, kwargs, result):
            groups.pop()
            if groups:
                sc.setJobGroup(groups[-1], groups[-1])
            else:
                sc.setLocalProperty("spark.jobGroup.id", None)
            jobs = tracker.getJobIdsForGroup(group)
            infos = [tracker.getJobInfo(j) for j in jobs]
            tr.add(f"{name}_jobs", len(jobs))
            tr.add(f"{name}_stages", sum(len(i.stageIds) for i in infos if i))

        return {"before": before, "after": after}

    return hooks

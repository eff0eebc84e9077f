"""Simulated user study — Table 6 (task T3).

The paper asks 30 human participants whether the Tau-Push-based and the
(near-exact) PI-based PPRviz visualizations differ in quality, over 6
groups (FilmTrust and SciNet analogs x k in {15, 20, 25}). No humans are
available here, so 30 seeded simulated raters stand in (DESIGN.md §5.2):
each rater scores a layout by a personally-weighted combination of the
three aesthetic metrics plus observation noise and declares "no
difference" when the scores are within a perception threshold. The tested
claim — Tau-Push's approximation is visually indistinguishable from exact
PDist — survives because the two layouts' metric profiles are nearly
identical, which is exactly what the raters measure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.pdist import level_dppr_exact, pdist_matrix
from repro.core.taupush import taupush_query
from repro.graphs.datasets import load_dataset
from repro.hierarchy.louvain import contract
from repro.hierarchy.supergraph import build_hierarchy
from repro.layout.stress import stress_majorization
from repro.metrics import all_metrics
from repro.pprlib.dpr import dpr_vector_local
from repro.pprlib.power_iteration import exact_dppr_matrix
from repro.pprviz import ALPHA

N_PARTICIPANTS = 30  # the paper's panel size
NOISE = 0.05  # std of a rater's observation noise


@dataclass
class StudyGroup:
    """One group of T3: the metric profiles of the two layouts."""

    graph: str
    k: int
    scores_taupush: dict
    scores_pi: dict


def _supergraph_edges(g, labels):
    """Undirected supergraph edges between top-level supernodes."""
    s, d = g.edge_array()
    a, b, _, _ = contract(s, d, np.ones(len(s)), labels)
    keep = a != b
    return a[keep], b[keep]


def build_groups(
    graphs: tuple[str, ...] = ("FilmTrust", "SciNet"),
    ks: tuple[int, ...] = (15, 20, 25),
    *,
    seed: int = 0,
) -> list[StudyGroup]:
    """Generate the 6 T3 groups: top-supergraph layouts by Tau-Push vs PI."""
    groups = []
    for name in graphs:
        d = load_dataset(name)
        g = d.csr()
        exact = exact_dppr_matrix(g, ALPHA)
        dpr = dpr_vector_local(g, ALPHA)
        for k in ks:
            h = build_hierarchy(g, k, seed=seed)
            kids, leaf_sets = h.query_children_leafsets(h.n_levels + 1, None)
            res = taupush_query(g, leaf_sets, dpr, ALPHA)
            pd_tau = res.pdist
            pd_pi = pdist_matrix(level_dppr_exact(exact, leaf_sets), g.n)
            X_tau = stress_majorization(pd_tau, seed=seed)
            X_pi = stress_majorization(pd_pi, seed=seed)
            labels = h.leaf_labels[h.n_levels]
            eu, ev = _supergraph_edges(g, labels)
            groups.append(
                StudyGroup(
                    graph=name,
                    k=k,
                    scores_taupush=all_metrics(X_tau, eu, ev),
                    scores_pi=all_metrics(X_pi, eu, ev),
                )
            )
    return groups


def simulate_t3(
    groups: list[StudyGroup],
    *,
    threshold: float = 0.08,
    seed: int = 7,
) -> pd.DataFrame:
    """Run the simulated raters over the groups; returns the Table 6 counts.

    A rater's score of a layout is sum_i w_i * metric_i with each metric
    expressed *relative to the pair's mean* (so a 5% ND difference scores
    0.05 regardless of absolute scale — a min-max rescale would map any
    two values to 0 and 1 and erase closeness), plus N(0, NOISE).
    ``N_PARTICIPANTS`` raters each score every group.
    Ratings closer than ``threshold`` count as "no difference".
    """
    rng = np.random.default_rng(seed)
    counts = {"Tau-Push": 0, "PI": 0, "No difference": 0}
    for _ in range(N_PARTICIPANTS):
        w = rng.dirichlet(np.ones(3))
        for grp in groups:
            pair = []
            for scores in (grp.scores_taupush, grp.scores_pi):
                vals = np.array([scores["ND"], scores["ULCV"], scores["AR"]])
                pair.append(vals)
            both = np.vstack(pair)
            finite_max = np.nanmax(np.where(np.isfinite(both), both, np.nan))
            both = np.where(np.isfinite(both), both, finite_max * 10)
            mean = both.mean(axis=0)
            norm = both / np.where(mean > 0, mean, 1.0)
            s_tau = float((norm[0] * w).sum()) + rng.normal(0, NOISE)
            s_pi = float((norm[1] * w).sum()) + rng.normal(0, NOISE)
            if abs(s_tau - s_pi) < threshold:
                counts["No difference"] += 1
            elif s_tau < s_pi:
                counts["Tau-Push"] += 1
            else:
                counts["PI"] += 1
    return pd.DataFrame([counts])

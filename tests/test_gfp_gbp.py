"""GFP (Alg. 2) and GBP (Alg. 3) correctness vs the exact level-l DPPR."""
import math

import numpy as np
import pytest

from repro.core.gbp import gbp
from repro.core.gfp import aggregate_to_supernodes, gfp, gfp_residue_init
from repro.core.pdist import level_dppr_exact
from repro.core.taupush import membership_arrays, taupush_params
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import dpr_vector_local
from repro.pprviz import ALPHA

EPS = 1.0 - 1.0 / math.e


@pytest.fixture(scope="module")
def partition(fbego):
    """A fixed 6-way partition of FbEgo's nodes as the supernode set S."""
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 6, fbego.n)
    leaf_sets = [np.flatnonzero(labels == i) for i in range(6)]
    member, sizes = membership_arrays(fbego.n, leaf_sets)
    return leaf_sets, member, sizes


def test_residue_init(fbego, partition):
    leaf_sets, _, _ = partition
    r = gfp_residue_init(fbego, leaf_sets[0])
    np.testing.assert_allclose(
        r[leaf_sets[0]], fbego.out_deg[leaf_sets[0]] / len(leaf_sets[0])
    )
    mask = np.ones(fbego.n, bool)
    mask[leaf_sets[0]] = False
    assert (r[mask] == 0).all()


def test_aggregate_mean(fbego, partition):
    leaf_sets, member, sizes = partition
    est = np.arange(fbego.n, dtype=float)
    agg = aggregate_to_supernodes(est, member, sizes)
    for j, fs in enumerate(leaf_sets):
        assert agg[j] == pytest.approx(est[fs].sum() / len(fs))


def test_gfp_lemma41(fbego, fbego_exact_dppr, partition):
    """Lemma 4.1: with rmax = eps*delta/(m*tau), GFP is (eps,delta)-approx
    for every target supernode with tau_j <= tau."""
    leaf_sets, member, sizes = partition
    delta = 1.0 / (10 * len(leaf_sets))
    tau, rmax, _ = taupush_params(fbego, leaf_sets)
    dpr = dpr_vector_local(fbego, ALPHA)
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    taus = np.array([dpr[fs].mean() for fs in leaf_sets])
    for i, fs in enumerate(leaf_sets):
        est, _ = gfp(fbego, fs, member, sizes, rmax, ALPHA)
        for j in np.flatnonzero(taus <= tau):
            bound = EPS * delta if exact[i, j] < delta else EPS * exact[i, j]
            assert abs(est[j] - exact[i, j]) <= bound + 1e-12


def test_gfp_underestimates(fbego, fbego_exact_dppr, partition):
    """Push estimates only ever grow toward the truth (Eq. 3 error >= 0)."""
    leaf_sets, member, sizes = partition
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    est, _ = gfp(fbego, leaf_sets[0], member, sizes, 0.01, ALPHA)
    assert (est <= exact[0] + 1e-10).all()


def test_gfp_tight_rmax_converges(fbego, fbego_exact_dppr, partition):
    leaf_sets, member, sizes = partition
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    est, _ = gfp(fbego, leaf_sets[1], member, sizes, 1e-8, ALPHA)
    np.testing.assert_allclose(est, exact[1], atol=1e-4)


def test_gfp_equals_mean_of_leaf_pushes(fbego, partition):
    """Grouped push == average of per-leaf pushes (linearity, Lemma A.2)."""
    from repro.pprlib.push import forward_push

    leaf_sets, member, sizes = partition
    fs = leaf_sets[2]
    est_g, _ = gfp(fbego, fs, member, sizes, 1e-7, ALPHA)
    acc = np.zeros(fbego.n)
    for s in fs:
        r0 = np.zeros(fbego.n)
        r0[s] = fbego.out_deg[s]
        e, _, _ = forward_push(fbego, r0, 1e-7, ALPHA)
        acc += e
    acc /= len(fs)
    est_l = aggregate_to_supernodes(acc, member, sizes)
    np.testing.assert_allclose(est_g, est_l, atol=1e-4)


def test_gbp_lemma42(fbego, fbego_exact_dppr, partition):
    """Lemma 4.2: GBP with rmax_b of Eq. (6) is (eps,delta)-approximate for
    every source supernode."""
    leaf_sets, member, sizes = partition
    delta = 1.0 / (10 * len(leaf_sets))
    _, _, rmax_b = taupush_params(fbego, leaf_sets)
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    for j, fs in enumerate(leaf_sets):
        col = gbp(fbego, fs, member, sizes, rmax_b, ALPHA)
        for i in range(len(leaf_sets)):
            if i == j:
                continue
            bound = EPS * delta if exact[i, j] < delta else EPS * exact[i, j]
            assert abs(col[i] - exact[i, j]) <= bound + 1e-12


def test_gbp_tight_converges(fbego, fbego_exact_dppr, partition):
    leaf_sets, member, sizes = partition
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    col = gbp(fbego, leaf_sets[3], member, sizes, 1e-8, ALPHA)
    np.testing.assert_allclose(col, exact[:, 3], atol=1e-4)


def test_gbp_budget(fbego, partition):
    leaf_sets, member, sizes = partition
    b = OpBudget()
    gbp(fbego, leaf_sets[0], member, sizes, 1e-5, ALPHA, budget=b)
    assert b.ops > 0


def test_singleton_supernodes_reduce_to_node_case(fbego, fbego_exact_dppr):
    """With every leaf its own supernode, GFP = plain Forward-Push DPPR."""
    leaf_sets = [np.array([i]) for i in range(fbego.n)]
    member, sizes = membership_arrays(fbego.n, leaf_sets)
    est, _ = gfp(fbego, np.array([0]), member, sizes, 1e-7, ALPHA)
    np.testing.assert_allclose(est, fbego_exact_dppr[0], atol=1e-4)

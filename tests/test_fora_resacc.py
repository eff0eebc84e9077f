"""FORA / FORA+ / ResAcc competitor accuracy tests."""
import math

import numpy as np
import pytest

from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.fora import WalkIndex, fora_omega_W, fora_single_source
from repro.pprlib.resacc import resacc_single_source
from repro.pprviz import ALPHA

EPS = 1.0 - 1.0 / math.e


def _check_eps_delta(est, exact, eps, delta, frac=0.9):
    """Definition 3.5 check; allows a small failure fraction (w.h.p. bound)."""
    bound = np.where(exact < delta, eps * delta, eps * exact)
    ok = np.abs(est - exact) <= bound + 1e-12
    assert ok.mean() >= frac, f"only {ok.mean():.2%} within (eps, delta) bounds"


def test_fora_omega_formula():
    W = fora_omega_W(0.5, 0.1, 100)  # p_f = 1/n = 0.01
    assert W == pytest.approx((2 + 2 * 0.5 / 3) * math.log(100) / (0.25 * 0.1))


@pytest.mark.parametrize("s", [0, 1, 5])
def test_fora_accuracy(fbego, fbego_exact_dppr, s):
    delta = 1.0 / (10 * 10)
    est = fora_single_source(
        fbego, s, ALPHA, EPS, delta, rng=np.random.default_rng(42)
    )
    _check_eps_delta(est, fbego_exact_dppr[s], EPS, delta)


def test_fora_plus_accuracy(fbego, fbego_exact_dppr):
    delta = 1.0 / (10 * 10)
    idx = WalkIndex(fbego, ALPHA, EPS, delta, seed=0)
    est = fora_single_source(
        fbego, 0, ALPHA, EPS, delta,
        rng=np.random.default_rng(7), walk_index=idx,
    )
    _check_eps_delta(est, fbego_exact_dppr[0], EPS, delta, frac=0.85)


def test_fora_budget_exceeded(fbego):
    with pytest.raises(OpBudgetExceeded):
        fora_single_source(
            fbego, 0, ALPHA, EPS, 0.001, budget=OpBudget(3),
            rng=np.random.default_rng(0),
        )


def test_walk_index_sizes(fbego):
    idx = WalkIndex(fbego, ALPHA, EPS, 0.01, seed=0, per_node_cap=8)
    assert idx.nbytes > 0
    counts = np.diff(idx.indptr)
    assert (counts >= 1).all() and (counts <= 8).all()
    assert len(idx.ends) == idx.indptr[-1]


def test_walk_index_lookup_valid(fbego):
    idx = WalkIndex(fbego, ALPHA, EPS, 0.01, seed=0)
    rng = np.random.default_rng(0)
    ends = idx.lookup(np.array([0, 1, 2, 0]), rng)
    assert len(ends) == 4
    assert (ends >= 0).all() and (ends < fbego.n).all()


def test_walk_index_smaller_cap_smaller_index(fbego):
    big = WalkIndex(fbego, ALPHA, EPS, 0.01, seed=0, per_node_cap=64)
    small = WalkIndex(fbego, ALPHA, EPS, 0.01, seed=0, per_node_cap=8)
    assert small.nbytes <= big.nbytes


@pytest.mark.parametrize("s", [0, 3])
def test_resacc_accuracy(fbego, fbego_exact_dppr, s):
    delta = 1.0 / (10 * 10)
    est = resacc_single_source(fbego, s, ALPHA, EPS, delta)
    # ResAcc is deterministic: every entry must satisfy the bound
    _check_eps_delta(est, fbego_exact_dppr[s], EPS, delta, frac=1.0)


def test_resacc_budget_exceeded(fbego):
    with pytest.raises(OpBudgetExceeded):
        resacc_single_source(fbego, 0, ALPHA, EPS, 0.01, budget=OpBudget(3))

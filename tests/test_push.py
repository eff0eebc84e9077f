"""Forward/Backward push kernels: invariants and accuracy."""
import numpy as np
import pytest

from repro.graphs import csr as csr_mod
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.push import backward_push, forward_push, random_walks
from repro.pprviz import ALPHA


def test_forward_push_invariant(tiny, tiny_exact_ppr):
    """Eq. (3): pi_d(s,t) = est(t) + sum_k r(k)/d(k) * pi_d(k,t)."""
    s = 0
    residue = np.zeros(tiny.n)
    residue[s] = tiny.out_deg[s]
    est, r, _ = forward_push(tiny, residue, rmax=0.1, alpha=ALPHA)
    dppr = tiny_exact_ppr * tiny.out_deg[:, None]
    deg = np.maximum(tiny.out_deg, 1.0)
    for t in range(tiny.n):
        recon = est[t] + sum(
            r[k] / deg[k] * dppr[k, t] for k in range(tiny.n)
        )
        assert recon == pytest.approx(dppr[s, t], abs=1e-10)


@pytest.mark.parametrize("rmax", [0.5, 0.05, 0.005])
def test_forward_push_error_decreases(fbego, fbego_exact_dppr, rmax):
    s = 1
    residue = np.zeros(fbego.n)
    residue[s] = fbego.out_deg[s]
    est, r, _ = forward_push(fbego, residue, rmax=rmax, alpha=ALPHA)
    err = np.abs(est - fbego_exact_dppr[s]).max()
    # error bounded by total remaining residue
    assert err <= r.sum() + 1e-12


def test_forward_push_converges_tight(fbego, fbego_exact_dppr):
    s = 2
    residue = np.zeros(fbego.n)
    residue[s] = fbego.out_deg[s]
    est, _, _ = forward_push(fbego, residue, rmax=1e-8, alpha=ALPHA)
    np.testing.assert_allclose(est, fbego_exact_dppr[s], atol=1e-4)


def test_forward_push_threshold_respected(fbego):
    residue = np.zeros(fbego.n)
    residue[0] = fbego.out_deg[0]
    _, r, _ = forward_push(fbego, residue, rmax=0.01, alpha=ALPHA)
    assert (r <= fbego.out_deg * 0.01 + 1e-12).all()


def test_forward_push_mass_conservation(tiny):
    """alpha-converted estimate + remaining residue = initial residue mass
    under the (1-alpha) push split, summed over time: est_total/alpha*a..."""
    residue = np.zeros(tiny.n)
    residue[0] = tiny.out_deg[0]
    est, r, _ = forward_push(tiny, residue, rmax=1e-10, alpha=ALPHA)
    # est approximates DPPR row sum = d(0) (rows of PPR sum to 1)
    assert est.sum() == pytest.approx(tiny.out_deg[0], abs=1e-6)


def test_backward_push_invariant(tiny, tiny_exact_ppr):
    """pi(s,t) = est(s) + sum_k pi(s,k) r(k) (Backward-Push invariant)."""
    t = 3
    residue = np.zeros(tiny.n)
    residue[t] = 1.0
    est, r, _ = backward_push(tiny, residue, rmax_b=0.05, alpha=ALPHA)
    for s in range(tiny.n):
        recon = est[s] + float((tiny_exact_ppr[s] * r).sum())
        assert recon == pytest.approx(tiny_exact_ppr[s, t], abs=1e-10)


def test_backward_push_tight(fbego, fbego_exact_ppr):
    t = 0
    residue = np.zeros(fbego.n)
    residue[t] = 1.0
    est, _, _ = backward_push(fbego, residue, rmax_b=1e-8, alpha=ALPHA)
    np.testing.assert_allclose(est, fbego_exact_ppr[:, t], atol=1e-4)


def test_backward_push_threshold(fbego):
    residue = np.zeros(fbego.n)
    residue[5] = 1.0
    _, r, _ = backward_push(fbego, residue, rmax_b=0.01, alpha=ALPHA)
    assert (r <= 0.01 + 1e-12).all()


def test_push_budget_charged(fbego):
    b = OpBudget()
    residue = np.zeros(fbego.n)
    residue[0] = fbego.out_deg[0]
    forward_push(fbego, residue, rmax=1e-4, alpha=ALPHA, budget=b)
    assert b.ops > 0


def test_push_budget_exceeded(fbego):
    residue = np.zeros(fbego.n)
    residue[0] = fbego.out_deg[0]
    with pytest.raises(OpBudgetExceeded):
        forward_push(fbego, residue, rmax=1e-8, alpha=ALPHA, budget=OpBudget(5))


def test_random_walks_end_distribution(fbego, fbego_exact_ppr):
    """Walk terminals from s are distributed ~ pi(s, .)."""
    rng = np.random.default_rng(0)
    s = 0
    ends = random_walks(fbego, np.full(20000, s), ALPHA, rng)
    emp = np.bincount(ends, minlength=fbego.n) / 20000
    assert np.abs(emp - fbego_exact_ppr[s]).max() < 0.02


def test_random_walks_budget(fbego):
    rng = np.random.default_rng(0)
    b = OpBudget()
    random_walks(fbego, np.zeros(100, dtype=np.int64), ALPHA, rng, budget=b)
    assert b.ops >= 100  # at least one step per walk


def test_random_walks_run_until_stopped():
    """A walk's length is geometric with mean 1/alpha; none is truncated.

    On a dangling-free cycle at alpha = 0.005 a 200-step cap would charge
    (1 - 0.995**200) / 0.005 ~ 126 ops per walk instead of 200.
    """
    n, alpha, walks = 10, 0.005, 4000
    cycle = CSRGraph(n, np.arange(n), (np.arange(n) + 1) % n)
    b = OpBudget()
    random_walks(cycle, np.zeros(walks, dtype=np.int64), alpha,
                 np.random.default_rng(0), budget=b)
    assert b.ops / walks == pytest.approx(1 / alpha, rel=0.05)


# shares of m that force every propagate round onto one path
ALL_SPARSE, ALL_DENSE = 1.0, float("-inf")


def _run_push(kernel, g, seeds, share, monkeypatch):
    monkeypatch.setattr(csr_mod, "DENSE_ARC_SHARE", share)
    residue = np.zeros(g.n)
    residue[seeds] = g.out_deg[seeds] if kernel is forward_push else 1.0
    budget = OpBudget()
    est, r, rounds = kernel(g, residue, 1e-7, ALPHA, budget=budget)
    return est, r, rounds, budget.ops


@pytest.mark.parametrize("kernel", [forward_push, backward_push])
@pytest.mark.parametrize(
    "graph, seeds", [("tiny", [0]), ("fbego", [1, 7, 30]), ("messy", [0, 3, 52])]
)
def test_sparse_and_dense_paths_agree(kernel, graph, seeds, request, monkeypatch):
    g = request.getfixturevalue(graph)
    sparse = _run_push(kernel, g, seeds, ALL_SPARSE, monkeypatch)
    dense = _run_push(kernel, g, seeds, ALL_DENSE, monkeypatch)
    assert sparse[2] == dense[2] and sparse[3] == dense[3]
    assert sparse[2] > 5
    np.testing.assert_allclose(sparse[0], dense[0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(sparse[1], dense[1], rtol=0, atol=1e-15)


def test_forward_push_dangling_node_keeps_alpha_share(messy):
    """A dangling node pushes: it keeps alpha * r, sends nothing, and the
    estimate matches the exact DPPR toward it (the walk stops there)."""
    from repro.pprlib.power_iteration import exact_dppr_matrix

    s = int(np.flatnonzero(messy.out_deg > 0)[0])
    residue = np.zeros(messy.n)
    residue[s] = messy.out_deg[s]
    est, r, _ = forward_push(messy, residue, rmax=1e-10, alpha=ALPHA)
    dangling = np.flatnonzero(messy.out_deg == 0)
    assert (r[dangling] == 0).all()
    np.testing.assert_allclose(est, exact_dppr_matrix(messy, ALPHA)[s], atol=1e-8)

"""DPR (degree-normalized PageRank, Eq. (4)) tests."""
import numpy as np
import pytest

from repro.graphs.datasets import load_dataset
from repro.pprlib.dpr import dpr_vector_local, supernode_dpr

ALPHA = 0.15


def test_dpr_sums_to_one(fbego):
    dpr = dpr_vector_local(fbego, ALPHA)
    assert dpr.sum() == pytest.approx(1.0, abs=1e-9)


def test_dpr_matches_definition(fbego, fbego_exact_dppr):
    """tau_t = (1/m) sum_k pi_d(v_k, t) — Eq. (4) with leaf F(V)={t}."""
    dpr = dpr_vector_local(fbego, ALPHA)
    expected = fbego_exact_dppr.sum(axis=0) / fbego.m
    np.testing.assert_allclose(dpr, expected, atol=1e-9)


def test_dpr_tiny(tiny, tiny_exact_ppr):
    dpr = dpr_vector_local(tiny, ALPHA)
    dppr = tiny_exact_ppr * tiny.out_deg[:, None]
    np.testing.assert_allclose(dpr, dppr.sum(axis=0) / tiny.m, atol=1e-10)


def test_dpr_nonnegative(wiki):
    assert (dpr_vector_local(wiki, ALPHA) >= 0).all()


def test_dpr_average_is_inverse_n(fbego):
    """Mean DPR = 1/n (the paper's average-PPR argument, §3.1)."""
    dpr = dpr_vector_local(fbego, ALPHA)
    assert dpr.mean() == pytest.approx(1.0 / fbego.n, abs=1e-9)


def test_dpr_skew_on_powerlaw_graph():
    """Fig. 6's power-law shape: hub DPR orders of magnitude above median."""
    g = load_dataset("Youtube").csr()
    dpr = dpr_vector_local(g, ALPHA)
    assert dpr.max() > 20 * np.median(dpr)
    # the great majority of nodes are below a small threshold
    assert (dpr < 10 * dpr.mean()).mean() > 0.95


def test_supernode_dpr_mean(fbego):
    dpr = dpr_vector_local(fbego, ALPHA)
    labels = np.arange(fbego.n) % 4
    sup = supernode_dpr(dpr, labels)
    for j in range(4):
        assert sup[j] == pytest.approx(dpr[labels == j].mean())


def test_supernode_dpr_of_identity_labels(fbego):
    dpr = dpr_vector_local(fbego, ALPHA)
    np.testing.assert_allclose(supernode_dpr(dpr, np.arange(fbego.n)), dpr)


def _dpr_by_arc_scatter(g, alpha, tol=1e-12, max_iter=300):
    """Reference: the power iteration with an unbuffered per-arc scatter."""
    src, dst = g.edge_array()
    deg = np.maximum(g.out_deg, 1.0)
    x = g.out_deg / max(1.0, float(g.m))
    pi = np.zeros(g.n)
    weight = 1.0
    for _ in range(max_iter):
        pi += alpha * weight * x
        if weight < tol:
            break
        y = np.zeros(g.n)
        np.add.at(y, dst, x[src] / deg[src])
        x = y
        weight *= 1.0 - alpha
    return pi


@pytest.mark.parametrize("name", ["FbEgo", "Youtube", "Twitter"])
def test_dpr_propagate_bit_identical_to_arc_scatter(name):
    """Both scatter in CSR arc order, so the sums are the same floats."""
    g = load_dataset(name).csr()
    assert np.array_equal(dpr_vector_local(g, ALPHA), _dpr_by_arc_scatter(g, ALPHA))

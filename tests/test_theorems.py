"""Empirical checks of the paper's aesthetic guarantees (Thms 3.2, 3.3)."""
import math

import numpy as np
import pytest

from repro.graphs.datasets import load_dataset
from repro.pprlib.power_iteration import exact_dppr_matrix
from repro.pprviz import single_level_pdist

ALPHA = 0.15


@pytest.mark.parametrize("name", ["TwEgo", "FbEgo"])
def test_theorem_32_nd_bound(name):
    """ND(X) <= 0.215 e m + 0.0175 n^2 when ||X_i-X_j|| = Delta_ij.

    The theorem is about the *distance matrix itself* (assumes a perfect
    embedding), so we evaluate ND directly on Delta.
    """
    d = load_dataset(name)
    g = d.csr()
    Delta = single_level_pdist(g, alpha=ALPHA)
    iu = np.triu_indices(g.n, k=1)
    nd = (1.0 / Delta[iu] ** 2).sum()
    bound = 0.215 * math.e * g.m + 0.0175 * g.n**2
    assert nd <= bound


@pytest.mark.parametrize("name", ["TwEgo", "FbEgo"])
def test_theorem_33_ulcv_bound(name):
    """ULCV <= (log(1/(2a(1-a))) - 1)/4 for alpha below the Thm 3.3 cap."""
    alpha = 0.15
    assert alpha <= 0.5 - math.sqrt(0.25 - 1.0 / (2 * math.e))
    d = load_dataset(name)
    g = d.csr()
    Delta = single_level_pdist(g, alpha=alpha)
    # edge lengths in the hypothetical perfect embedding are Delta values
    lens = Delta[d.u, d.v]
    ulcv = lens.std() / lens.mean()
    bound = (math.log(1.0 / (2 * alpha * (1 - alpha))) - 1.0) / 4.0
    assert ulcv <= bound


def test_edge_pdist_upper_bound_lemma():
    """Any edge's PDist <= 1 - log(2 a (1-a)) (the Thm 3.3 proof step)."""
    alpha = 0.15
    d = load_dataset("FbEgo")
    g = d.csr()
    Delta = single_level_pdist(g, alpha=alpha)
    cap = 1.0 - math.log(2 * alpha * (1 - alpha))
    assert (Delta[d.u, d.v] <= cap + 1e-9).all()


def test_eq11_total_dppr_mass():
    """sum_ij (pi_d(i,j) + pi_d(j,i)) = 2m (Eq. 11)."""
    g = load_dataset("TwEgo").csr()
    D = exact_dppr_matrix(g, ALPHA)
    z = D + D.T
    assert z.sum() == pytest.approx(2 * g.m, rel=1e-9)

"""Stress majorization with one distance matrix per iteration: the same
positions and loss as the loop that computed it twice
(``tests/stress_reference.py``)."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.hierarchy import build_hierarchy
from repro.layout.stress import stress_loss, stress_majorization
from repro.pprviz import single_level_pdist
from repro.core.taupush import taupush_query
from repro.pprlib.dpr import dpr_vector_local
from tests import stress_reference as ref

ALPHA = 0.15


@st.composite
def _distance_matrices(draw):
    """Symmetric, zero diagonal; some off-diagonal entries are 0 (no
    constraint) and some points coincide."""
    k = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    P = rng.random((k, 2)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    if k > 2 and draw(st.booleans()):
        P[1] = P[0]
    D = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(-1))
    D = D + rng.random((k, k)) * draw(st.sampled_from([0.0, 0.2]))
    D = (D + D.T) / 2
    holes = np.triu(rng.random((k, k)) < draw(st.sampled_from([0.0, 0.3])), 1)
    D[holes | holes.T] = 0.0
    np.fill_diagonal(D, 0.0)
    return D


@given(_distance_matrices(), st.integers(0, 3), st.sampled_from([1, 5, 200]),
       st.booleans())
def test_stress_matches_reference(D, seed, max_iter, with_init):
    init = np.random.default_rng(seed).random((len(D), 2)) if with_init else None
    X = stress_majorization(D, seed=seed, max_iter=max_iter, init=init)
    X_ref = ref.stress_majorization(D, seed=seed, max_iter=max_iter, init=init)
    assert np.array_equal(X, X_ref)
    assert stress_loss(X, D) == ref.stress_loss(X, D)


def test_stress_matches_reference_on_pdist(fbego, wiki):
    """Every hierarchy query of two small graphs, plus the single-level
    FbEgo PDist matrix: bit-identical positions."""
    matrices = [single_level_pdist(fbego)]
    for g, k in ((fbego, 8), (wiki, 10)):
        h = build_hierarchy(g, k, seed=0)
        dpr = dpr_vector_local(g, ALPHA)
        queries = [(h.n_levels + 1, None)] + [
            (level, sup)
            for level in range(h.n_levels, 0, -1)
            for sup in range(h.n_supernodes(level))
        ]
        for q in queries:
            _, leaf_sets = h.query_children_leafsets(*q)
            matrices.append(taupush_query(g, leaf_sets, dpr, ALPHA).pdist)
    for D in matrices:
        assert np.array_equal(stress_majorization(D), ref.stress_majorization(D))

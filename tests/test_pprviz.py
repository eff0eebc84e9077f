"""End-to-end PPRviz tests (preprocess + interactive query)."""
import numpy as np
import pytest

from repro.core.index import TauPushIndex
from repro.graphs.datasets import load_dataset
from repro.metrics import all_metrics
from repro.pprviz import preprocess, single_level_layout


@pytest.fixture(scope="module")
def model():
    return preprocess(load_dataset("FilmTrust").csr(), 15, seed=0)


def test_model_components(model):
    assert model.hierarchy.n == model.g.n
    assert len(model.index.leaf_dpr) == model.g.n


def test_root_query_layout(model):
    X = model.query(model.hierarchy.n_levels + 1, None)
    assert X.shape[1] == 2
    assert len(X) == model.hierarchy.n_supernodes(model.hierarchy.n_levels)
    assert np.isfinite(X).all()


def test_query_children_count_capped(model):
    rng = np.random.default_rng(1)
    for pl, sup in model.hierarchy.random_zoom_path(rng):
        X = model.query(pl, sup)
        assert 1 <= len(X) <= model.k if sup is not None else True


def test_query_deterministic(model):
    X1 = model.query(model.hierarchy.n_levels + 1, None, seed=3)
    X2 = model.query(model.hierarchy.n_levels + 1, None, seed=3)
    np.testing.assert_allclose(X1, X2)


def test_query_returns_result_details(model):
    X, res = model.query(model.hierarchy.n_levels + 1, None, return_result=True)
    assert res.pdist.shape == (len(X), len(X))
    assert res.ops > 0


def test_full_zoom_paths_run(model):
    rng = np.random.default_rng(2)
    for _ in range(3):
        for pl, sup in model.hierarchy.random_zoom_path(rng):
            X = model.query(pl, sup)
            assert np.isfinite(X).all()


def test_single_level_quality_vs_random():
    """PPRviz single-level beats a random layout on ULCV and on stress
    w.r.t. its own PDist matrix (ND is not the right contrast here: a
    uniform random scatter minimizes clutter by construction, while a
    structured layout concentrates clusters)."""
    from repro.layout.stress import stress_loss
    from repro.pprviz import single_level_pdist

    d = load_dataset("FbEgo")
    g = d.csr()
    X = single_level_layout(g, seed=0)
    rng = np.random.default_rng(0)
    R = rng.random((g.n, 2))
    m_ppr = all_metrics(X, d.u, d.v)
    m_rand = all_metrics(R, d.u, d.v)
    assert m_ppr["ULCV"] < m_rand["ULCV"]
    D = single_level_pdist(g)
    assert stress_loss(X, D) < stress_loss(R, D)


def test_preprocess_without_gbp():
    """With a DPR-only index every GBP target runs live."""
    g = load_dataset("FbEgo").csr()
    m = preprocess(g, 10)
    m.index = TauPushIndex(leaf_dpr=m.index.leaf_dpr)
    X = m.query(m.hierarchy.n_levels + 1, None)
    assert np.isfinite(X).all()


def test_youtube_bench_op_counts():
    """The op counts the benchmark quotes for the Youtube analog at k = 25;
    any change to the push, the index or the hierarchy moves them."""
    m = preprocess(load_dataset("Youtube").csr(), 25)
    _, res = m.query(m.hierarchy.n_levels + 1, None, return_result=True)
    assert m.index.build_ops == 87_924_208
    assert res.ops == 15_330_166

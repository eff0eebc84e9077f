"""Efficiency harness tests (the Tables 7-10 machinery) on a mid graph."""
import numpy as np
import pytest

from repro.experiments import efficiency as eff
from repro.pprlib.budget import OpBudget


@pytest.fixture(scope="module")
def prep():
    return eff.prepare("Amazon", 25, n_paths=2, seed=0)


def test_prepare_cached(prep):
    assert eff.prepare("Amazon", 25) is prep


def test_paths_prepared(prep):
    assert len(prep.paths) == 2
    assert prep.paths[0][0] == (prep.model.hierarchy.n_levels + 1, None)


def test_taupush_response_finite(prep):
    r = eff.response_time("Tau-Push", prep)
    assert r is not None and r > 0


def test_grouped_variants_respond(prep):
    for v in ("GFRA", "GFP(taumax)"):
        assert eff.response_time(v, prep) is not None


def test_per_leaf_variants_time_out(prep):
    """The paper's Table 8 '-' entries: PI/FORA/FORA+/ResAcc exceed the
    budget on every large graph."""
    for v in ("PI", "FORA", "FORA+", "ResAcc"):
        assert eff.response_time(v, prep) is None, v


def test_per_leaf_ok_with_huge_budget_on_small_query(prep):
    """The per-leaf path itself is correct — it just can't afford the
    top-level query. A bottom-level query fits a generous budget."""
    rng = np.random.default_rng(0)
    pl, sup = prep.paths[0][-1]  # level-1 parent, children are leaves
    X = eff.run_variant_query(
        "FORA", prep, pl, sup, budget=OpBudget(10**9), rng=rng
    )
    assert np.isfinite(X).all()


def test_preprocessing_times_ordered(prep):
    """PI/ResAcc (hierarchy only) <= every indexed variant."""
    base = eff.preprocessing_time("PI", prep)
    assert eff.preprocessing_time("ResAcc", prep) == base
    for v in ("FORA", "FORA+", "Tau-Push", "GFP(taumax)", "GFRA"):
        assert eff.preprocessing_time(v, prep) >= base


def test_index_sizes_ordered(prep):
    """Table 10 shape: PI=ResAcc < GFP(taumax) <= Tau-Push; FORA+ < FORA;
    GFRA = FORA."""
    sz = {v: eff.index_size_bytes(v, prep) for v in eff.VARIANTS}
    assert sz["PI"] == sz["ResAcc"]
    assert sz["PI"] < sz["Tau-Push"]
    assert sz["GFP(taumax)"] <= sz["Tau-Push"]
    assert sz["FORA+"] < sz["FORA"]
    assert sz["GFRA"] == sz["FORA"]
    assert sz["Tau-Push"] < sz["FORA"]


def test_variant_list_matches_paper():
    assert eff.VARIANTS == [
        "PI", "FORA", "FORA+", "ResAcc", "Tau-Push", "GFRA", "GFP(taumax)"
    ]

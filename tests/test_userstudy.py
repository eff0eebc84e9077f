"""Simulated user study (Table 6) tests."""
import pytest

from repro.userstudy import build_groups, simulate_t3


@pytest.fixture(scope="module")
def groups():
    # one graph, two k values -> 2 groups (fast variant of the 6-group study)
    return build_groups(graphs=("FilmTrust",), ks=(15, 25), seed=0)


def test_group_structure(groups):
    assert len(groups) == 2
    for g in groups:
        assert set(g.scores_taupush) == {"ND", "ULCV", "AR"}
        assert set(g.scores_pi) == {"ND", "ULCV", "AR"}


def test_profiles_close(groups):
    """The core claim: Tau-Push and PI layouts have similar ULCV."""
    for g in groups:
        t, p = g.scores_taupush["ULCV"], g.scores_pi["ULCV"]
        assert abs(t - p) <= 0.5 * max(t, p, 0.1)


def test_simulation_counts_total(groups):
    df = simulate_t3(groups, seed=1)
    assert int(df.iloc[0].sum()) == 30 * len(groups)


def test_simulation_no_difference_dominates(groups):
    """Paper Table 6 shape: 'No difference' is the most common response and
    neither method dominates the other."""
    df = simulate_t3(groups, seed=1)
    row = df.iloc[0]
    assert row["No difference"] >= max(row["Tau-Push"], row["PI"]) * 0.8
    big, small = max(row["Tau-Push"], row["PI"]), min(row["Tau-Push"], row["PI"])
    assert big <= 3 * (small + 5)


def test_simulation_deterministic(groups):
    a = simulate_t3(groups, seed=5)
    b = simulate_t3(groups, seed=5)
    assert a.equals(b)


def test_threshold_monotone(groups):
    """A larger perception threshold can only increase 'No difference'."""
    lo = simulate_t3(groups, threshold=0.02, seed=2).iloc[0]["No difference"]
    hi = simulate_t3(groups, threshold=0.5, seed=2).iloc[0]["No difference"]
    assert hi >= lo

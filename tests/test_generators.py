"""Synthetic graph generator tests: determinism, validity, shape."""
import numpy as np

from repro.graphs import generators as gen


def _assert_valid_undirected(n, u, v):
    assert len(u) == len(v)
    assert (u < v).all(), "edges must be canonical u<v"
    assert u.min() >= 0 and v.max() < n
    key = u.astype(np.int64) * n + v
    assert len(np.unique(key)) == len(key), "duplicate edges"


def test_ego_deterministic():
    a = gen.ego_graph(17, (3, 3), seed=1)
    b = gen.ego_graph(17, (3, 3), seed=1)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


def test_ego_seed_changes_graph():
    a = gen.ego_graph(17, (3, 3), p_core=0.3, seed=1)
    b = gen.ego_graph(17, (3, 3), p_core=0.3, seed=2)
    assert len(a[1]) != len(b[1]) or not np.array_equal(a[1], b[1])


def test_ego_valid():
    n, u, v = gen.ego_graph(20, (4, 3, 2), seed=3)
    assert n == 20 + 4 + 3 + 2
    _assert_valid_undirected(n, u, v)


def test_ego_center_spokes():
    n, u, v = gen.ego_graph(10, (), seed=0)
    # ego node 0 is adjacent to every core node
    nbrs = set(v[u == 0].tolist()) | set(u[v == 0].tolist())
    assert nbrs == set(range(1, 10))


def test_ego_cliques_disconnected():
    n, u, v = gen.ego_graph(8, (3,), p_core=0.5, seed=0)
    clique = set(range(8, 11))
    for a, b in zip(u, v):
        in_c = (a in clique) + (b in clique)
        assert in_c != 1, "clique edge crosses into the core"


def test_sbm_valid_and_deterministic():
    n, u, v = gen.sbm([30, 20, 10], 0.3, 0.01, seed=5)
    _assert_valid_undirected(n, u, v)
    n2, u2, v2 = gen.sbm([30, 20, 10], 0.3, 0.01, seed=5)
    np.testing.assert_array_equal(u, u2)


def test_sbm_no_isolated_nodes():
    n, u, v = gen.sbm([40, 40], 0.05, 0.001, seed=1)
    deg = np.zeros(n)
    np.add.at(deg, u, 1)
    np.add.at(deg, v, 1)
    assert (deg >= 1).all()


def test_sbm_intra_denser_than_inter():
    sizes = [50, 50]
    n, u, v = gen.sbm(sizes, 0.2, 0.005, seed=2)
    comm = (np.arange(n) >= 50).astype(int)
    intra = (comm[u] == comm[v]).sum()
    inter = (comm[u] != comm[v]).sum()
    # normalize by pair counts
    assert intra / (2 * 50 * 49 / 2) > 5 * inter / (50 * 50)


def test_chung_lu_valid():
    n, u, v = gen.chung_lu_community(500, 2000, n_comm=10, seed=0)
    _assert_valid_undirected(n, u, v)
    assert n == 500


def test_chung_lu_power_law_skew():
    n, u, v = gen.chung_lu_community(2000, 10000, exponent=2.0, n_comm=10, seed=0)
    deg = np.zeros(n)
    np.add.at(deg, u, 1)
    np.add.at(deg, v, 1)
    # hubbiness: max degree far above mean, tail heavy
    assert deg.max() > 15 * deg.mean()


def test_chung_lu_exponent_orders_skew():
    def maxdeg(expo):
        n, u, v = gen.chung_lu_community(2000, 8000, exponent=expo, n_comm=1, seed=0)
        deg = np.zeros(n)
        np.add.at(deg, u, 1)
        np.add.at(deg, v, 1)
        return deg.max()

    assert maxdeg(2.0) > maxdeg(2.8)


def test_chung_lu_no_isolated():
    n, u, v = gen.chung_lu_community(300, 900, n_comm=5, seed=4)
    deg = np.zeros(n)
    np.add.at(deg, u, 1)
    np.add.at(deg, v, 1)
    assert (deg >= 1).all()


def test_chung_lu_community_structure():
    n, u, v = gen.chung_lu_community(
        1000, 5000, exponent=2.5, n_comm=10, intra_frac=0.8, seed=1
    )
    rng = np.random.default_rng(1)
    comm = rng.integers(0, 10, n)  # same seed+order as generator
    same = (comm[u] == comm[v]).mean()
    assert same > 0.3  # far above the ~0.1 random baseline

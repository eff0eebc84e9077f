"""BFS shortest paths (with DuckDB recursive-CTE oracle) and CMDS/PMDS."""
import numpy as np
import pandas as pd

from repro.graphs.csr import CSRGraph
from repro.layout.bfs import apsp, bfs_from
from repro.layout.mds import cmds, pmds


def _path_graph(n):
    u = np.arange(n - 1)
    return CSRGraph.from_undirected(n, u, u + 1)


def test_bfs_path_graph():
    g = _path_graph(6)
    np.testing.assert_array_equal(bfs_from(g, 0), np.arange(6))
    np.testing.assert_array_equal(bfs_from(g, 5), np.arange(5, -1, -1))


def test_bfs_unreachable():
    g = CSRGraph.from_undirected(4, np.array([0]), np.array([1]))
    d = bfs_from(g, 0)
    assert d[0] == 0 and d[1] == 1
    assert d[2] == -1 and d[3] == -1


def test_apsp_symmetric_on_undirected(twego):
    D = apsp(twego)
    np.testing.assert_array_equal(D, D.T)
    assert (np.diag(D) == 0).all()


def test_apsp_disconnected_filled(twego):
    D = apsp(twego)
    assert np.isfinite(D).all()


def test_bfs_against_duckdb_oracle(twego):
    """Cross-check hop distances with a DuckDB recursive shortest-path CTE."""
    import duckdb

    s, d = twego.edge_array()
    edges = pd.DataFrame({"src": s, "dst": d})
    con = duckdb.connect()
    con.register("edges", edges)
    expected = con.execute(
        """
        WITH RECURSIVE walk(node, dist) AS (
            SELECT 0::BIGINT, 0 UNION ALL
            SELECT e.dst, w.dist + 1 FROM walk w JOIN edges e ON e.src = w.node
            WHERE w.dist < 10
        )
        SELECT node, MIN(dist) AS dist FROM walk GROUP BY node ORDER BY node
        """
    ).fetchdf()
    con.close()
    ours = bfs_from(twego, 0)
    for node, dist in zip(expected["node"], expected["dist"]):
        assert ours[int(node)] == int(dist)


def test_cmds_recovers_line():
    g = _path_graph(10)
    X = cmds(g)
    # a path embeds (near) collinearly: second principal extent tiny
    spans = X.max(axis=0) - X.min(axis=0)
    assert min(spans) < 0.35 * max(spans)
    # consecutive nodes at ~unit spacing along the main axis
    main = X[:, int(np.argmax(spans))]
    gaps = np.abs(np.diff(main))
    assert gaps.std() < 0.3


def test_cmds_matches_inline_classical_scaling(twego, fbego, wiki):
    """CMDS through the shared classical scaling equals the formula it
    replaced, bit for bit."""
    for g in (twego, fbego, wiki):
        D = apsp(g)
        J = np.eye(g.n) - np.ones((g.n, g.n)) / g.n
        B = -0.5 * J @ D**2 @ J
        vals, vecs = np.linalg.eigh((B + B.T) / 2.0)
        idx = np.argsort(vals)[::-1][:2]
        X = vecs[:, idx] * np.sqrt(np.clip(vals[idx], 0.0, None))[None, :]
        assert np.array_equal(cmds(g), X)


def test_cmds_shape(twego):
    assert cmds(twego).shape == (twego.n, 2)


def test_pmds_shape(twego):
    assert pmds(twego, n_pivots=10).shape == (twego.n, 2)


def test_pmds_close_to_cmds_on_small_graph(twego):
    """With all nodes as pivots, PMDS spans the same subspace as CMDS."""
    Xc = cmds(twego)
    Xp = pmds(twego, n_pivots=twego.n)
    # compare pairwise-distance structure, not raw coordinates
    def pd2(X):
        diff = X[:, None] - X[None, :]
        return np.sqrt((diff**2).sum(-1))

    c = np.corrcoef(pd2(Xc).ravel(), pd2(Xp).ravel())[0, 1]
    assert c > 0.9


def test_pmds_degree_one_collapse():
    """Degree-1 nodes sharing a pivot neighbor get identical positions —
    the overlap degeneracy behind PMDS's infinite ND in Table 4."""
    # star: center 0, leaves 1..5
    g = CSRGraph.from_undirected(6, np.zeros(5, int), np.arange(1, 6))
    X = pmds(g, n_pivots=1, seed=0)
    # all leaves equidistant from the single pivot -> identical coordinates
    leaf_pos = X[1:]
    assert np.allclose(leaf_pos, leaf_pos[0])

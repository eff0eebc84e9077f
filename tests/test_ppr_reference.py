"""One push loop, one power iteration, one walk phase: same numbers as
the separate copies they replaced (``tests/ppr_reference.py``).

Drawn graphs are small and directed, with dangling and isolated nodes,
self-loops and repeated arcs.
"""
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.gfra import gfra_query
from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.fora import WalkIndex, fora_single_source
from repro.pprlib.power_iteration import ppr_single_source_pi
from repro.pprlib.push import backward_push, forward_push
from repro.pprviz import ALPHA
from tests import ppr_reference as ref

EPS = 1.0 - 1.0 / math.e


@st.composite
def _directed_graphs(draw):
    """Only nodes below ``n_out`` have out-arcs, so the rest are dangling
    (they receive) or isolated; arcs may repeat and be self-loops."""
    n = draw(st.integers(2, 12))
    n_out = draw(st.integers(1, n))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n_out - 1), st.integers(0, n - 1)),
        min_size=1, max_size=3 * n,
    ))
    src, dst = np.array(arcs).T
    return CSRGraph(n, src, dst)


def _same_push(kernel, ref_kernel, g, residue, rmax):
    b, b_ref = OpBudget(), OpBudget()
    est, r, rounds = kernel(g, residue, rmax, ALPHA, budget=b)
    est_ref, r_ref, rounds_ref = ref_kernel(g, residue, rmax, ALPHA, budget=b_ref)
    assert np.array_equal(est, est_ref) and np.array_equal(r, r_ref)
    assert (rounds, b.ops) == (rounds_ref, b_ref.ops)


@given(_directed_graphs(), st.integers(0, 3),
       st.sampled_from([0.3, 0.03, 1e-3, 1e-6]))
def test_push_kernels_match_reference(g, seed, rmax):
    """Bit-identical estimate and residue, same rounds and ops, from a
    single seed and from a spread residue (as GFP/GBP seed them)."""
    rng = np.random.default_rng(seed)
    spread = rng.random(g.n) * (rng.random(g.n) < 0.5)
    single = np.zeros(g.n)
    single[rng.integers(g.n)] = 1.0
    for residue in (single, spread, single * g.out_deg):
        _same_push(forward_push, ref.forward_push, g, residue, rmax)
        _same_push(backward_push, ref.backward_push, g, residue, rmax)


@given(_directed_graphs(), st.integers(0, 11), st.sampled_from([1e-4, 1e-9]))
def test_pi_matches_reference(g, source, tol):
    """Same propagations; the values differ by the one term the old loop
    computed and dropped, which is below ``tol``."""
    source %= g.n
    b, b_ref = OpBudget(), OpBudget()
    pi = ppr_single_source_pi(g, source, ALPHA, tol=tol, budget=b)
    pi_ref = ref.ppr_single_source_pi(g, source, ALPHA, tol=tol, budget=b_ref)
    assert b.ops == b_ref.ops
    assert np.abs(pi - pi_ref).max() <= tol


@given(_directed_graphs(), st.integers(0, 11), st.integers(1, 4),
       st.integers(0, 3))
def test_fora_family_matches_reference(g, source, k, seed):
    """FORA, FORA+ and GFRA (live and indexed walks) are bit-identical to
    the reference for the same seeded ``rng``."""
    source %= g.n
    k = min(k, g.n)
    delta = 0.1
    idx = WalkIndex(g, ALPHA, EPS, delta, seed=0, per_node_cap=8)
    labels = np.random.default_rng(seed).permutation(g.n) % k
    leaf_sets = [np.flatnonzero(labels == i) for i in range(k)]
    for walk_index in (None, idx):
        b, b_ref = OpBudget(), OpBudget()
        est = fora_single_source(g, source, ALPHA, EPS, delta, budget=b,
                                 rng=np.random.default_rng(seed),
                                 walk_index=walk_index)
        est_ref = ref.fora_single_source(g, source, ALPHA, EPS, delta,
                                         budget=b_ref,
                                         rng=np.random.default_rng(seed),
                                         walk_index=walk_index)
        assert np.array_equal(est, est_ref) and b.ops == b_ref.ops
        res = gfra_query(g, leaf_sets, ALPHA, rng=np.random.default_rng(seed),
                         walk_index=walk_index)
        res_ref = ref.gfra_query(g, leaf_sets, ALPHA,
                                 rng=np.random.default_rng(seed),
                                 walk_index=walk_index)
        assert np.array_equal(res.dppr, res_ref.dppr)
        assert np.array_equal(res.pdist, res_ref.pdist)
        assert (res.ops, res.rmax) == (res_ref.ops, res_ref.rmax)

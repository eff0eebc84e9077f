"""Shared small-graph fixtures for the unit tests.

Session-scoped and cached: the exact PPR/DPPR matrices are the ground
truth most kernel tests compare against. The Spark fixture comes from the
repo-root conftest.

Property tests run under one ``hypothesis`` profile: derandomized (every
run draws the same examples), no example database, no per-example
deadline (a slow machine cannot flake them) and a fixed example count.
"""
import numpy as np
import pytest
from hypothesis import settings

from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.pprlib.power_iteration import exact_dppr_matrix, exact_ppr_matrix

ALPHA = 0.15

settings.register_profile(
    "repro", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def tiny():
    """Hand-built 6-node directed graph with known structure."""
    # 0->1,0->2,1->2,2->0,2->3,3->4,4->3,4->5,5->4  (one dangling-free loop)
    src = np.array([0, 0, 1, 2, 2, 3, 4, 4, 5])
    dst = np.array([1, 2, 2, 0, 3, 4, 3, 5, 4])
    return CSRGraph(6, src, dst)


@pytest.fixture(scope="session")
def messy():
    """Seeded 60-node directed graph: nodes 50-54 only receive (dangling),
    55-59 are isolated, every 7th node has a self-loop, some arcs repeat."""
    rng = np.random.default_rng(7)
    src = rng.integers(0, 50, 300)
    dst = rng.integers(0, 55, 300)
    loops = np.arange(0, 50, 7)
    return CSRGraph(60, np.concatenate([src, loops]), np.concatenate([dst, loops]))


@pytest.fixture(scope="session")
def twego():
    return load_dataset("TwEgo").csr()


@pytest.fixture(scope="session")
def fbego():
    return load_dataset("FbEgo").csr()


@pytest.fixture(scope="session")
def wiki():
    return load_dataset("Wiki-ii").csr()


@pytest.fixture(scope="session")
def fbego_exact_ppr(fbego):
    return exact_ppr_matrix(fbego, ALPHA)


@pytest.fixture(scope="session")
def fbego_exact_dppr(fbego):
    return exact_dppr_matrix(fbego, ALPHA)


@pytest.fixture(scope="session")
def tiny_exact_ppr(tiny):
    return exact_ppr_matrix(tiny, ALPHA)

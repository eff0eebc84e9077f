"""Registry of the 12 paper datasets → deterministic synthetic analogs.

Paper Table 3 sizes vs ours (DESIGN.md §5.1): the 6 small quality graphs
keep the paper's exact node counts and similar edge counts; the 6 large
efficiency graphs are scaled down ~1000x but preserve (i) the paper's
relative size ordering by edge count and (ii) the degree-skew ordering
(Twitter/It-2004 most skewed), which is what the efficiency tables' *shape*
depends on.

``load_dataset(name)`` returns a :class:`Dataset` with undirected edges,
a local CSR graph, and helpers to materialize the Spark edge DataFrame.
"""
from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
import pandas as pd

from repro.graphs.csr import CSRGraph
from repro.graphs import generators as gen


@dataclass(frozen=True)
class Dataset:
    """A loaded synthetic dataset (undirected; CSR stores both arcs)."""

    name: str
    n: int
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    description: str = ""

    @property
    def m_undirected(self) -> int:
        return len(self.u)

    @property
    def m(self) -> int:
        """Directed arc count (both directions) — the paper's working m."""
        return 2 * len(self.u)

    def csr(self) -> CSRGraph:
        return CSRGraph.from_undirected(self.n, self.u, self.v)

    def edge_pandas(self) -> pd.DataFrame:
        """All directed arcs as a (src, dst) pandas frame."""
        return pd.DataFrame(
            {
                "src": np.concatenate([self.u, self.v]),
                "dst": np.concatenate([self.v, self.u]),
            }
        )

    def edge_df(self, spark):
        """All directed arcs as a Spark DataFrame.

        The arcs are read from a local Parquet file, so no task carries
        them: ``createDataFrame(pandas)`` would ship the whole arc list
        inside the job's tasks (5-7 MiB on the largest analogs).
        """
        return spark.read.parquet(str(self._arcs_parquet()))

    def _arcs_parquet(self) -> Path:
        """The arcs written once to a Parquet file named by their content,
        under the first ``SPARK_LOCAL_DIRS`` directory (else the temp dir)."""
        digest = hashlib.sha256(self.u.tobytes() + self.v.tobytes()).hexdigest()[:24]
        local = os.environ.get("SPARK_LOCAL_DIRS") or tempfile.gettempdir()
        path = Path(local.split(",")[0]) / "repro-arcs" / f"{digest}-{self.n}.parquet"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            part = path.with_name(f".{path.name}.{os.getpid()}")
            self.edge_pandas().to_parquet(part, index=False)
            os.replace(part, path)  # atomic: a reader never sees half a file
        return path


# name -> (builder, paper_n, paper_m, description)
_SMALL = {
    "TwEgo": (
        lambda: gen.ego_graph(17, (3, 3), p_core=0.18, seed=11),
        23, 52, "Ego network analog (paper: SNAP ego-Twitter sample)",
    ),
    "FbEgo": (
        lambda: gen.ego_graph(40, (4, 3, 3, 2), p_core=0.124, seed=12),
        52, 146, "Ego network analog (paper: SNAP ego-Facebook sample)",
    ),
    "Wiki-ii": (
        lambda: gen.sbm([60, 50, 40, 36], 0.075, 0.004, seed=13),
        186, 632, "Authorship network analog (KONECT Wiki)",
    ),
    "Physician": (
        lambda: gen.sbm([70, 60, 60, 51], 0.123, 0.008, seed=14),
        241, 1800, "Social network analog (KONECT physicians)",
    ),
    "FilmTrust": (
        lambda: gen.sbm([200, 180, 160, 140, 120, 74], 0.017, 0.0009, seed=15),
        874, 2600, "User trust network analog (KONECT FilmTrust)",
    ),
    "SciNet": (
        lambda: gen.sbm([300, 260, 240, 220, 200, 160, 120], 0.0145, 0.0006, seed=16),
        1500, 5400, "Collaboration network analog (KONECT)",
    ),
}

_LARGE = {
    "Amazon": (
        lambda: gen.chung_lu_community(8000, 44000, exponent=2.8, n_comm=160, seed=21),
        334_900, 1_900_000, "Product network analog, low skew, many communities",
    ),
    "Youtube": (
        lambda: gen.chung_lu_community(12000, 66000, exponent=2.2, n_comm=120, seed=22),
        1_100_000, 6_000_000, "Social network analog, strong hub skew",
    ),
    "DBLP": (
        lambda: gen.chung_lu_community(15000, 95000, exponent=2.6, n_comm=250, seed=23),
        5_400_000, 17_200_000, "Collaboration network analog",
    ),
    "Orkut": (
        lambda: gen.chung_lu_community(10000, 220000, exponent=2.4, n_comm=80, seed=24),
        3_100_000, 234_400_000, "Dense social network analog",
    ),
    "It-2004": (
        lambda: gen.chung_lu_community(20000, 330000, exponent=2.1, n_comm=150, seed=25),
        41_300_000, 2_300_000_000, "Crawled web graph analog, very high skew",
    ),
    "Twitter": (
        lambda: gen.chung_lu_community(25000, 520000, exponent=2.0, n_comm=100, seed=26),
        41_700_000, 3_000_000_000, "Social network analog, highest skew (b=2)",
    ),
}

DATASETS: dict[str, tuple] = {**_SMALL, **_LARGE}
SMALL_GRAPHS = list(_SMALL)
LARGE_GRAPHS = list(_LARGE)
# The 4 graphs used by Tables 8-10.
VARIANT_GRAPHS = ["Youtube", "Orkut", "It-2004", "Twitter"]


@lru_cache(maxsize=None)
def load_dataset(name: str) -> Dataset:
    """Build (cached) the synthetic analog of the named paper dataset."""
    builder, _, _, desc = DATASETS[name]
    n, u, v = builder()
    return Dataset(name=name, n=n, u=u, v=v, description=desc)


def stats_table() -> pd.DataFrame:
    """Our Table 3: name, n, m (undirected), paper n, paper m."""
    rows = []
    for name, (_, pn, pm, desc) in DATASETS.items():
        d = load_dataset(name)
        rows.append(
            {
                "dataset": name,
                "n": d.n,
                "m_undirected": d.m_undirected,
                "paper_n": pn,
                "paper_m": pm,
                "description": desc,
            }
        )
    return pd.DataFrame(rows)

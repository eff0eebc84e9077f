"""The numpy engine loads only the code it runs.

``import repro.pprviz`` must not start PySpark or pandas, nor load the
Spark graph or the dataset generators: only ``dpr_vector_spark`` and the
Spark-side modules import them. Package ``__init__`` files re-export
nothing, so importing one submodule never drags in its siblings.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_LOADED = (
    "pyspark",
    "pandas",
    "repro.graphs.spark_graph",
    "repro.graphs.datasets",
    "repro.graphs.generators",
)
SCRIPT = (
    "import sys\n"
    "import repro.pprviz\n"
    f"print(' '.join(m for m in {NOT_LOADED!r} if m in sys.modules))\n"
)


def test_pprviz_import_loads_no_spark_or_datasets():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []


def test_package_inits_hold_only_docstrings():
    for path in sorted((ROOT / "src").rglob("__init__.py")):
        tree = ast.parse(path.read_text())
        assert len(tree.body) == 1 and ast.get_docstring(tree), path

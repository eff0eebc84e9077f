"""Pin: the number of defaulted parameters under ``src/`` only goes down.

Every defaulted positional or keyword-only parameter is an option some
caller may set. The count is taken with ``ast`` over every function and
lambda, as ``test_unused_imports`` scans imports.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_DEFAULTED = 87


def defaulted_parameters(path: Path) -> int:
    """Defaulted positional and keyword-only parameters defined in ``path``."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def test_defaulted_parameter_count_is_pinned():
    count = sum(defaulted_parameters(p) for p in sorted((ROOT / "src").rglob("*.py")))
    assert count <= MAX_DEFAULTED, (
        f"src/ has {count} defaulted parameters, above the pin of {MAX_DEFAULTED}: "
        "make an option that every caller leaves alone a constant, or raise "
        "MAX_DEFAULTED and justify the new option in CHANGES.md"
    )


def test_counts_positional_and_keyword_only_defaults(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def f(a, b=1, *, c, d=2):\n"
        "    return lambda x=0: x\n"
        "def g(*args, e=None, **kw):\n"
        "    pass\n"
    )
    assert defaulted_parameters(src) == 4

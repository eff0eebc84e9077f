"""Lint: no module imports a name it never reads.

No linter ships with the toolchain, so this parses every ``.py`` file under
``src/``, ``tests/``, ``benchmarks/`` and ``jobs/`` with ``ast``. An imported
name counts as read when it appears as a loaded name anywhere in the module,
or inside a string annotation. ``perfbench/`` is frozen, ``__init__.py``
files re-export, and ``from __future__`` imports are directives; all three
are skipped.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "jobs")


def _annotation_strings(tree: ast.AST):
    """String constants used as annotations (``x: "Foo | None"``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            anns = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            anns += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            anns.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            anns = [node.annotation]
        else:
            continue
        for ann in anns:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield ann.value


def _read_names(tree: ast.AST) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for text in _annotation_strings(tree):
        names |= {
            n.id for n in ast.walk(ast.parse(text, mode="eval"))
            if isinstance(n, ast.Name)
        }
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) for every name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in read:
                    unused.append((node.lineno, bound))
    return unused


def _scanned_files():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}:{name}"
        for path in _scanned_files()
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_detects_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import Any\n"
        "def f(x: 'Any') -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(src) == [(2, "os"), (3, "np")]

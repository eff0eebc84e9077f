"""Shared, compute-once state for the table benchmarks.

The quality grid (Tables 4/5/11) and the prepared efficiency graphs
(Tables 7-10) are expensive; benchmarks in different files reuse them
through these module-level caches so one ``pytest benchmarks/`` run builds
each input exactly once.
"""
from __future__ import annotations

from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=1)
def quality_grid_cached():
    from repro.experiments.quality import quality_grid

    return quality_grid(seed=0)


RESULTS_PATH = Path(__file__).with_name("measured_tables.txt")


def print_table(title: str, df) -> None:
    """Emit a measured table to stdout AND benchmarks/measured_tables.txt
    (pytest captures stdout by default, so the file is the durable copy
    EXPERIMENTS.md quotes). A re-run replaces the block with the same
    title in place; a new title is appended."""
    head = f"\n=== {title} ===\n"
    block = f"{head}{df.to_string()}\n"
    print(block, end="")
    text = RESULTS_PATH.read_text() if RESULTS_PATH.exists() else ""
    start = text.find(head)
    if start < 0:
        text += block
    else:
        end = text.find("\n=== ", start + len(head))
        text = text[:start] + block + (text[end:] if end >= 0 else "")
    RESULTS_PATH.write_text(text)

"""``print_table`` keeps one block per table title in the results file."""
import pandas as pd

from benchmarks import _cache


def test_rerun_replaces_block_in_place(tmp_path, monkeypatch):
    path = tmp_path / "measured_tables.txt"
    monkeypatch.setattr(_cache, "RESULTS_PATH", path)
    _cache.print_table("A", pd.DataFrame({"x": [1]}))
    _cache.print_table("B", pd.DataFrame({"y": [2]}))
    _cache.print_table("A", pd.DataFrame({"x": [3]}))
    _cache.print_table("C", pd.DataFrame({"z": [4]}))
    expected = "".join(
        f"\n=== {t} ===\n{pd.DataFrame({c: [v]}).to_string()}\n"
        for t, c, v in [("A", "x", 3), ("B", "y", 2), ("C", "z", 4)]
    )
    assert path.read_text() == expected

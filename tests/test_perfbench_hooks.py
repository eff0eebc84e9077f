"""perfbench's traced run rebinds library names (``tracing.install_numpy_
layers``); a rename in ``repro`` breaks that run, not the library's own
tests. These tests install every hook, so a patched name that no longer
resolves fails here, check that uninstalling restores each original, and
run the fanned index build and query under the hooks: the fan-out pickles
its job function by name, which a wrapper in its place would break."""
from pathlib import Path

import numpy as np

from repro.core import fanout
from repro.core import taupush as taupush_mod
from repro.pprviz import preprocess

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_numpy_hooks_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tr = tracing.Tracer()
    try:
        tracing.install_numpy_layers(tr)  # KeyError when a patched name is gone
        patched = list(tr._patches)
        assert patched
        for owner, attr, orig in patched:
            assert owner.__dict__[attr].__wrapped__ is orig, (owner, attr)
    finally:
        tr.uninstall()
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig, (owner, attr)


def test_traced_fan_out_matches_untraced(twego, monkeypatch):
    """TwEgo (k = 25): 12 index columns, so the build fans out as well as
    the root query. The traced set is forked with the hooks installed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(taupush_mod, "FANOUT_MIN_ARCS", 0)
    import tracing

    def build_and_root_query():
        fanout.close()
        m = preprocess(twego, 25)
        _, res = m.query(m.hierarchy.n_levels + 1, None, return_result=True)
        return m.index, res

    want_idx, want = build_and_root_query()
    assert len(want_idx.gbp_store) > 1
    tr = tracing.Tracer()
    try:
        tracing.install_numpy_layers(tr)
        idx, got = build_and_root_query()
    finally:
        tr.uninstall()
    assert tr.totals["core.index_build_ops"] == idx.build_ops == want_idx.build_ops
    assert list(idx.gbp_store) == list(want_idx.gbp_store)
    for key, (sids, col) in want_idx.gbp_store.items():
        assert np.array_equal(idx.gbp_store[key][0], sids)
        assert np.array_equal(idx.gbp_store[key][1], col)
    assert got.ops == want.ops and np.array_equal(got.dppr, want.dppr)

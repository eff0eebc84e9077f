"""perfbench's traced run rebinds library names (``tracing.install_numpy_
layers``); a rename in ``repro`` breaks that run, not the library's own
tests. This test installs every hook, so a patched name that no longer
resolves fails here, and checks that uninstalling restores each original."""
from pathlib import Path

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

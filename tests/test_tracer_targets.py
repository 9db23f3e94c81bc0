"""The benchmark's tracer (perfbench/layers.py) wraps goalgen functions by
module and name, so deleting or renaming one of them breaks a traced run
(`perfbench/run.py --trace 1`). This reads perfbench and changes nothing
in it."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    replacements = layers.instrument(spans.Recorder())
    assert replacements
    originals = [getattr(owner, name) for owner, name, _ in replacements]
    for (owner, name, wrapper), original in zip(replacements, originals):
        assert callable(original), f"{owner.__name__}.{name}"
        assert callable(wrapper), f"{owner.__name__}.{name}"
    with spans.patched(replacements):
        for owner, name, wrapper in replacements:
            assert getattr(owner, name) is wrapper
    assert [getattr(o, n) for o, n, _ in replacements] == originals

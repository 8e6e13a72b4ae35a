"""The benchmark's layer table must keep naming functions the library has."""

import importlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    measure = importlib.import_module("measure")
    assert measure.LAYERS
    for owner, attr, name in measure.LAYERS:
        assert callable(getattr(owner, attr, None)), \
            f"layer {name}: {owner.__name__}.{attr} no longer exists"

"""The benchmark's traced run wraps names inside the package; they must exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _names(modules):
    return [{name: id(value) for name, value in vars(m).items()} for m in modules]


def test_instrument_wraps_and_restores_every_layer_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = (spans.cli, spans.engine, spans.families, spans.viz)
    before = _names(modules)
    with spans.instrument(spans.Tracer()):
        assert _names(modules) != before
    assert _names(modules) == before

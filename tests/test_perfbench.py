"""The benchmark's traced run wraps names inside the package; they must exist."""

import argparse
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _names(modules):
    return [{name: id(value) for name, value in vars(m).items()} for m in modules]


def test_instrument_wraps_and_restores_every_layer_name():
    spans = _spans()
    modules = (spans.cli, spans.engine, spans.families, spans.viz)
    before = _names(modules)
    with spans.instrument(spans.Tracer()):
        assert _names(modules) != before
    assert _names(modules) == before


def test_traced_ingest_builds_what_untraced_ingest_builds(tmp_path):
    # the traced run swaps cli's names for plain wrapper functions, so ingest
    # may only call them, not look up attributes on them
    spans = _spans()
    path = tmp_path / "in.csv"
    path.write_text("y,w,g\n1.5,1,b\nNA,2,a\n-0.0,0.5,a\n2,1,c\n3,2,b\n", encoding="utf-8")
    args = argparse.Namespace(input=str(path), family="gaussian", response=["y"], time=None,
                              event=None, factor="g", weights="w")
    untraced = spans.cli._build_dataset(args)
    tracer = spans.Tracer()
    tracer.begin_merge(0)
    with spans.instrument(tracer):
        traced = spans.cli._build_dataset(args)
    (d1, g1, meta1), (d2, g2, meta2) = untraced, traced
    assert d1.values.tobytes() == d2.values.tobytes() and d1.weights.tobytes() == d2.weights.tobytes()
    assert g1 == g2 and g1.labels == g2.labels == ("b", "a", "c", "b")
    assert meta1 == meta2 and meta1["rejectedRows"] == [2]
    assert {s[0] for s in tracer.spans} == {"cli.ingest", "data"}

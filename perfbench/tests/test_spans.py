"""Span recording, self-time arithmetic and the layer wrappers."""

import numpy as np

from perfbench.spans import Recorder, Span, install, layer_totals, self_times
from repro.core import dimensioning


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 7]
    spans = [
        Span("A", 0, 10_000_000_000),
        Span("B", 1_000_000_000, 4_000_000_000, parent=0),
        Span("C", 2_000_000_000, 3_000_000_000, parent=1),
        Span("D", 5_000_000_000, 7_000_000_000, parent=0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert sum(self_times(spans)) == spans[0].dur_s


def test_layer_totals_count_outermost_of_nested_same_name():
    spans = [
        Span("root", 0, 10),
        Span("x", 1, 9, parent=0),
        Span("x", 2, 5, parent=1),
        Span("y", 5, 6, parent=1),
        Span("x", 6, 7, parent=3),
    ]
    totals = layer_totals(spans)
    assert totals["x"] == 8e-9
    assert totals["y"] == 1e-9


def test_recorder_parents_and_order():
    rec = Recorder()
    with rec.span("a"):
        with rec.span("b"):
            pass
        with rec.span("c"):
            pass
    assert [(s.name, s.parent) for s in rec.spans] == [("a", None), ("b", 0), ("c", 0)]
    assert all(s.end_ns >= s.start_ns for s in rec.spans)


def test_install_wraps_and_restores():
    original = dimensioning.make_vpt
    rec = Recorder()
    with install(rec, hooks=(("repro.core.dimensioning", "make_vpt", "layer.vpt"),)):
        vpt = dimensioning.make_vpt(16, 2)
    assert dimensioning.make_vpt is original
    assert vpt.K == 16
    assert [s.name for s in rec.spans] == ["layer.vpt"]


def test_memory_peak_is_own_code_only():
    import tracemalloc

    rec = Recorder(memory=True)
    tracemalloc.start()
    try:
        with rec.span("parent"):
            small = np.ones(2**17)  # 1 MiB
            with rec.span("child"):
                big = np.ones(2**20)  # 8 MiB
                del big
            del small
    finally:
        tracemalloc.stop()
    parent, child = rec.spans
    assert child.peak_bytes >= 8 * 2**20
    assert 2**20 <= parent.peak_bytes < 4 * 2**20


def test_chrome_trace_doc_is_valid():
    from repro.obs.export import validate_chrome_trace

    from perfbench.spans import chrome_trace_doc

    spans = [Span("bench.pass", 0, 4000), Span("core.plan.build", 1000, 3000, parent=0)]
    doc = validate_chrome_trace(chrome_trace_doc({"spans": spans, "empty": []}))
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [(e["name"], e["dur"]) for e in complete] == [
        ("bench.pass", 4.0),
        ("core.plan.build", 2.0),
    ]
    assert complete[0]["args"]["self_s"] == 2e-6

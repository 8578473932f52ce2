"""Workload inputs, passes and checks, on small versions of each workload."""

import numpy as np
import pytest

from perfbench.workloads import (
    WORKLOADS,
    ExchangeWorkload,
    ServiceWorkload,
    Table3Workload,
)
from repro.network.machines import CRAY_XC40

SMALL = {
    "batch": ExchangeWorkload("batch", "", K=256, engine="batch"),
    "event": ExchangeWorkload("event", "", K=64, engine="event", export=True),
    "table3": Table3Workload("table3", "", cells=((CRAY_XC40, 64),), scale=0.01),
    "service": ServiceWorkload("service", "", K=64),
}


def run(workload, inputs):
    state = workload.fresh(inputs)
    outcomes = [op() for op in workload.ops(inputs, state)]
    return state, outcomes


def test_registry_matches_the_contract():
    assert list(WORKLOADS) == [
        "stfw-batch-k65536",
        "stfw-event-traced-k4096",
        "paper-table3",
        "service-drift-faults-k256",
    ]
    for name, w in WORKLOADS.items():
        assert w.name == name and 0 < len(w.why) <= 200 and "\n" not in w.why


def shape_of(name, inputs):
    if name in ("batch", "event"):
        return inputs.K, set(inputs.size.tolist())
    if name == "table3":
        return tuple((m.name, K, A.shape, part.K) for m, K, A, part, _ in inputs)
    return (
        inputs.pattern.K,
        inputs.vpt.dim_sizes,
        len(inputs.deltas),
        [f.default_drop for f in inputs.faults],
    )


def content_of(name, inputs):
    if name in ("batch", "event"):
        return np.concatenate([inputs.src, inputs.dst])
    if name == "table3":
        return np.concatenate([A.indices for _, _, A, _, _ in inputs])
    return np.concatenate([inputs.pattern.dst] + [d.add_dst for d in inputs.deltas])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_changes_inputs_not_shape(name):
    w = SMALL[name]
    a, b, again = w.setup(1), w.setup(2), w.setup(1)
    assert shape_of(name, a) == shape_of(name, b)
    assert not np.array_equal(content_of(name, a), content_of(name, b))
    assert np.array_equal(content_of(name, a), content_of(name, again))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_passes_verify_and_repeat_their_digest(name):
    w = SMALL[name]
    inputs = w.setup(3)
    digests = []
    for _ in range(2):
        state, outcomes = run(w, inputs)
        failed, digest = w.check(inputs, state, outcomes)
        assert failed == 0
        digests.append(digest)
    assert digests[0] == digests[1]
    assert digests[0]["physical_msgs"] > 0


def test_exchange_check_counts_a_corrupted_result():
    w = SMALL["event"]
    pattern = w.setup(4)
    state, [(result, tracer, doc)] = run(w, pattern)
    rank = next(t for t, m in enumerate(result.delivered) if m)
    result.delivered[rank].pop()
    failed, _ = w.check(pattern, state, [(result, tracer, doc)])
    assert failed == 1


def test_raised_operation_counts_as_failed():
    w = SMALL["table3"]
    inputs = w.setup(5)
    failed, digest = w.check(inputs, None, [RuntimeError("boom")])
    assert failed == 1
    assert digest["cells"] == {"Cray XC40/K64": {"error": "RuntimeError"}}


def test_service_check_flags_a_missing_pair():
    w = SMALL["service"]
    inputs = w.setup(6)
    service, reports = run(w, inputs)
    result = reports[0].result
    rank = next(t for t, m in enumerate(result.delivered) if m)
    result.delivered[rank].pop()
    failed, _ = w.check(inputs, service, reports)
    assert failed == 1


def test_printed_metrics_match_benchmark_json():
    import json

    from perfbench.probe import REF_S
    from perfbench.run import Pass, end_to_end_metrics, layer_metrics
    from perfbench.spans import Span
    from perfbench.tests.conftest import ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    untraced = [Pass(1.0, 1, 0, {"events": 10}, 600.0), Pass(2.0, 1, 0, {"events": 10}, 700.0)]
    # passes probed at the reference speed and at half of it
    probed = [
        Pass(1.0, 1, 0, {}, 600.0, probe_s=REF_S),
        Pass(4.0, 1, 0, {}, 700.0, probe_s=2 * REF_S),
        Pass(3.0, 1, 0, {}, 700.0, probe_s=REF_S),
    ]
    rows = end_to_end_metrics([0.5, 0.7, 0.6], 2 * REF_S, probed)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in rows.items()
    }
    # corrected medians: passes read 1, 2, 3 s at reference speed
    assert rows["wall_s"][0] == pytest.approx(2.0)
    assert rows["setup_s"][0] == pytest.approx(0.3)
    assert rows["peak_rss_mb"][0] == 600.0

    def traced(build_ns, wall_s):
        spans = [Span("bench.pass", 0, 10), Span("core.plan.build", 1, 1 + build_ns, parent=0)]
        return spans, Pass(wall_s, 1, 0, {"events": 10})

    runs = [traced(8, 4.0), traced(6, 2.0), traced(9, 3.0)]
    rows = layer_metrics(runs, runs[0][0], untraced, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in rows.items()
    }
    # medians over the traced passes, overhead against the untraced median
    assert rows["core.plan.build_s"][0] == pytest.approx(8e-9)
    assert rows["bench.attributed_frac"][0] == pytest.approx(0.8)
    assert rows["bench.tracing_overhead_s"][0] == pytest.approx(1.5)
    assert rows["sim_events_per_s"][0] == pytest.approx(10 / 1.5)

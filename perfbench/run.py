"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The input set-up is repeated (at least three times and two
seconds) and its median reported as ``setup_s``.  With ``--trace 0``
the workload then runs untraced passes (at least two, and more while
the next one still fits into ``--seconds``) and reports the end-to-end
metrics as medians over passes.  Set-up and pass times are corrected
for the host's speed during each timed window (:mod:`perfbench.probe`);
the raw times go into the result document.  With ``--trace 1`` it runs a warm-up
pass, then untraced and span-traced passes in turn, then one pass with
spans plus ``tracemalloc`` peaks, and reports the per-layer metrics as
medians over the span-traced passes.  Every pass is verified outside
its timed window; its simulated-statistics digest must equal the first
pass's.  The last line of standard output is the result as JSON; the
full result document, stamped with the host fingerprint, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: set-up repeats at least this often and for at least this long, so
#: that the median of a sub-second set-up spans more than a noise spike
SETUP_REPS = 3
SETUP_MIN_S = 2.0
MIN_PASSES = 2
#: untraced/span-traced pass pairs of a traced run
TRACED_PAIRS = 3


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}/repro")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failed: int
    digest: dict
    #: peak RSS of the process so far, read when the timed window ends
    rss_mb: float = 0.0
    #: median speed-probe sample of the timed window; 0 when not probed
    probe_s: float = 0.0

    @property
    def digest_key(self) -> str:
        return json.dumps(self.digest, sort_keys=True)


def run_pass(workload, inputs, recorder=None, probe=False) -> Pass:
    """One closed-loop pass: operations back to back, then verification.
    With ``probe`` the speed probe samples the timed window."""
    from perfbench.probe import SpeedProbe
    from perfbench.spans import install

    state = workload.fresh(inputs)
    outcomes = []
    gc.collect()
    hooks = install(recorder) if recorder is not None else nullcontext()
    memory = recorder is not None and recorder.memory
    sampler = SpeedProbe() if probe else None
    with hooks:
        # bound after the hooks are in, so that bound methods are wrapped
        ops = workload.ops(inputs, state)
        if memory:
            tracemalloc.start()
        with sampler or nullcontext():
            t0 = time.perf_counter()
            with recorder.span("bench.pass") if recorder is not None else nullcontext():
                for op in ops:
                    try:
                        outcomes.append(op())
                    except Exception as exc:  # a failed operation is counted, not fatal
                        traceback.print_exc(file=sys.stderr)
                        outcomes.append(exc)
            wall = time.perf_counter() - t0
        if memory:
            tracemalloc.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, digest = workload.check(inputs, state, outcomes)
    probe_s = sampler.median_s() if sampler else 0.0
    return Pass(wall, len(outcomes), failed, digest, rss_mb, probe_s)


def end_to_end_metrics(setups: list[float], setup_probe_s: float, passes: list[Pass]) -> dict:
    """End-to-end metrics of an untraced run: medians over set-ups and
    passes, each corrected for host speed (set-ups by the median probe
    sample over all set-ups, each pass by its own), and the peak RSS of
    set-up plus the first pass, taken before that pass is verified.
    Later readings would also hold the verifier's arrays and the heap
    that earlier passes left behind."""
    from perfbench.probe import corrected

    return {
        "setup_s": (corrected(statistics.median(setups), setup_probe_s), "s"),
        "wall_s": (statistics.median(corrected(p.wall_s, p.probe_s) for p in passes), "s"),
        "peak_rss_mb": (passes[0].rss_mb, "MB"),
    }


def pass_layers(spans, digest: dict) -> dict:
    """Per-layer times and counts of one traced pass; ``spans[0]`` is the pass."""
    from perfbench.spans import layer_totals, self_times

    totals = layer_totals(spans)
    own = self_times(spans)
    names = [s.name for s in spans]

    def total(name):
        return totals.get(name, 0.0)

    def self_of(prefix):
        return sum(t for n, t in zip(names, own) if n.startswith(prefix))

    runtime_s = total("simmpi.runtime.run")
    # only the exchange workloads carry an engine-backed event count
    events = digest.get("events", 0)
    epochs = names.count("spmv.persistent.epoch")
    attempts = names.count("core.stfw.fastpath") + names.count("core.stfw.tolerant")
    actions = digest.get("actions", {})
    return {
        "core.plan.build_s": (total("core.plan.build"), "s"),
        "core.plan.repair_s": (total("core.plan.repair"), "s"),
        "core.plan.physical_msgs": (digest.get("physical_msgs", 0), "count"),
        "core.plan.forwarded_words": (digest.get("forwarded_words", 0), "count"),
        "core.stfw.self_s": (self_of("core.stfw."), "s"),
        "core.stfw.fastpath_s": (total("core.stfw.fastpath"), "s"),
        "core.stfw.tolerant_s": (total("core.stfw.tolerant"), "s"),
        "simmpi.batch.run_s": (total("simmpi.batch.run"), "s"),
        "simmpi.runtime.run_s": (runtime_s, "s"),
        "simmpi.runtime.us_per_event": (runtime_s * 1e6 / events if events else 0.0, "us"),
        "simmpi.events": (events, "count"),
        "obs.export_s": (total("obs.export"), "s"),
        "obs.records": (digest.get("obs_records", 0), "count"),
        "obs.trace_bytes": (digest.get("trace_bytes", 0), "bytes"),
        "spmv.pattern_s": (total("spmv.pattern"), "s"),
        "network.timing.time_plan_s": (total("network.timing.time_plan"), "s"),
        "metrics.collect_s": (total("metrics.collect"), "s"),
        "spmv.persistent.epoch_s": (total("spmv.persistent.epoch"), "s"),
        "spmv.persistent.self_s": (self_of("spmv.persistent."), "s"),
        "spmv.persistent.attempts_per_epoch": (attempts / epochs if epochs else 0.0, "count"),
        "spmv.persistent.first_try_frac": (
            actions.get("healthy", 0) / epochs if epochs else 0.0, "frac"
        ),
        "bench.attributed_frac": (1.0 - own[0] / spans[0].dur_s, "frac"),
    }


def layer_metrics(
    traced: list[tuple[list, Pass]], mem_spans, untraced: list[Pass], failed_frac: float
) -> dict:
    """Per-layer metrics of a traced run: medians over the span-traced
    passes, memory peaks from the ``tracemalloc`` pass, and the tracing
    overhead and event rate against the untraced passes."""

    def peak_mb(prefix):
        peaks = (s.peak_bytes for s in mem_spans if s.name.startswith(prefix))
        return max(peaks, default=0) / 2**20

    per_pass = [pass_layers(spans, p.digest) for spans, p in traced]
    rows = {
        k: (statistics.median(r[k][0] for r in per_pass), unit)
        for k, (_, unit) in per_pass[0].items()
    }
    untraced_s = statistics.median(p.wall_s for p in untraced)
    traced_s = statistics.median(p.wall_s for _, p in traced)
    rows.update(
        {
            "core.plan.peak_mb": (peak_mb("core.plan."), "MB"),
            "core.stfw.peak_mb": (peak_mb("core.stfw."), "MB"),
            "simmpi.batch.peak_mb": (peak_mb("simmpi.batch."), "MB"),
            "simmpi.runtime.peak_mb": (peak_mb("simmpi.runtime."), "MB"),
            "sim_events_per_s": (rows["simmpi.events"][0] / untraced_s, "1/s"),
            "bench.tracing_overhead_s": (traced_s - untraced_s, "s"),
            "failed_frac": (failed_frac, "frac"),
        }
    )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    _load_program()
    from perfbench.host import fingerprint
    from perfbench.probe import REF_S, SpeedProbe
    from perfbench.spans import Recorder, chrome_trace_doc
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - t0

    setups: list[float] = []
    setup_samples: list[float] = []
    inputs = None
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        inputs = None
        gc.collect()
        with SpeedProbe() as sampler:
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed)
            setups.append(time.perf_counter() - t0)
        setup_samples += sampler.samples
    setup_probe_s = statistics.median(setup_samples)

    passes: list[Pass] = []
    if args.trace:
        # a warm-up pass (the first pass of a process also pays for
        # growing the heap), then untraced and span-traced passes in
        # turn, so that both sides of the overhead see the same host
        # phases, then one pass with spans plus tracemalloc
        passes.append(run_pass(workload, inputs))
        untraced, traced = [], []
        for _ in range(TRACED_PAIRS):
            untraced.append(run_pass(workload, inputs))
            rec = Recorder()
            traced.append((rec.spans, run_pass(workload, inputs, rec)))
            passes += [untraced[-1], traced[-1][1]]
        rec_mem = Recorder(memory=True)
        passes.append(run_pass(workload, inputs, rec_mem))
    else:
        measured = 0.0
        while len(passes) < MIN_PASSES or measured + passes[-1].wall_s <= args.seconds:
            passes.append(run_pass(workload, inputs, probe=True))
            measured += passes[-1].wall_s

    # a pass whose simulated statistics differ from the first counts as failed
    reference = passes[0].digest_key
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.attempted if p.digest_key != reference else p.failed for p in passes)
    if args.trace:
        rows = layer_metrics(traced, rec_mem.spans, untraced, failed / attempted)
    else:
        rows = end_to_end_metrics(setups, setup_probe_s, passes)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    digest_sha = hashlib.sha256(reference.encode()).hexdigest()
    host = fingerprint(ROOT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": "perfbench-result-v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "import_s": import_s,
        "setup_s": setups,
        "pass_wall_s": [p.wall_s for p in passes],
        "probe_ref_s": REF_S,
        "setup_probe_s": setup_probe_s,
        "pass_probe_s": [p.probe_s for p in passes],
        "digest_sha256": digest_sha,
        "digest": passes[0].digest,
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        labelled = {f"spans {i + 1}": spans for i, (spans, _) in enumerate(traced)}
        spans_doc = chrome_trace_doc({**labelled, "spans+tracemalloc": rec_mem.spans})
        (OUT / f"{stem}.spans.json").write_text(spans_doc)

    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"digest {digest_sha} {reference}")
    if not args.trace:
        raw_wall = statistics.median(p.wall_s for p in passes)
        pass_probe = statistics.median(p.probe_s for p in passes)
        print(
            f"uncorrected: setup_s {statistics.median(setups):.6g} s, wall_s {raw_wall:.6g} s; "
            f"probe median {setup_probe_s * 1e6:.4g} us in set-up, {pass_probe * 1e6:.4g} us "
            f"in passes, reference {REF_S * 1e6:.4g} us"
        )
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

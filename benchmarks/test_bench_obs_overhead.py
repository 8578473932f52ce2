"""Tracer overhead: disabled on the engine-scaling workload, enabled
on a planned STFW exchange.

The observability layer promises a near-zero disabled path: every
instrumented constructor stores ``self._obs = tracer if (tracer is not
None and tracer.enabled) else None`` once, and every hot-path hook is
gated on a single ``if obs is not None`` local check.  This benchmark
holds it to that promise on the same persistent sparse STFW exchange as
:mod:`test_bench_engine_scaling`: running with ``NULL_TRACER`` (or no
tracer at all — the default) must stay within 2% of the untraced
engine's wall clock.

Quick mode: ``REPRO_OBS_BENCH_K=256 REPRO_OBS_BENCH_ITERS=400``.

The enabled tracer is held to "cheap enough to leave on": a traced
planned 2-D STFW exchange at K=1024 (degree 8, 16 words, BG/Q) must
stay within 1.25x of the same exchange untraced.  The engine and the
exchange processes total their hot-path counters per rank and flush
them once, so tracing costs a few bulk updates plus one span per rank
and stage instead of several dict updates per message.  This gate is
fixed at K=1024 (the quick-mode variables do not shrink it).
"""

from __future__ import annotations

import gc
import os
import statistics
import time

from repro.core import CommPattern, run_exchange
from repro.network import BGQ
from repro.obs import NULL_TRACER, Tracer
from repro.simmpi.runtime import SimMPI

from test_bench_engine_scaling import _exchange_setup, _normalize

BENCH_K = int(os.environ.get("REPRO_OBS_BENCH_K", "1024"))
BENCH_ITERS = int(os.environ.get("REPRO_OBS_BENCH_ITERS", "1000"))
#: tolerated slowdown of the disabled-tracer run (interleaved best-of-N
#: floors the scheduler noise; the gated hooks are a pointer test each)
MAX_OVERHEAD = 1.02
#: absolute slack for quick-mode runs whose total time approaches the
#: host timer / scheduler noise floor
NOISE_FLOOR_S = 0.002
_REPS = 7

ENABLED_K = 1024
#: tolerated slowdown of the enabled-tracer exchange: the median of
#: per-pair traced/untraced ratios (per-rank counter flushes measure
#: about 1.1-1.2x; one counter call per message measured about 1.6x)
MAX_ENABLED_OVERHEAD = 1.25
_ENABLED_PAIRS = 15


def _timed(factory, K, tracer) -> tuple[float, object]:
    engine = SimMPI(K, tracer=tracer) if tracer is not None else SimMPI(K)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        res = engine.run(factory)
        return time.perf_counter() - t0, res
    finally:
        gc.enable()


def test_bench_disabled_tracer_overhead():
    """NULL_TRACER run within 2% of the tracer-free engine."""
    K, iters = BENCH_K, BENCH_ITERS
    factory = _exchange_setup(K, iters)

    _timed(factory, K, None)  # warmup: allocator + bytecode caches
    base_s = null_s = float("inf")
    base_res = null_res = None
    for _ in range(_REPS):  # interleaved best-of-N floors scheduler noise
        s, base_res = _timed(factory, K, None)
        base_s = min(base_s, s)
        s, null_res = _timed(factory, K, NULL_TRACER)
        null_s = min(null_s, s)

    overhead = null_s / base_s
    print(
        f"\nobs overhead @ K={K}, iters={iters}: untraced {base_s * 1e3:.1f} ms, "
        f"NULL_TRACER {null_s * 1e3:.1f} ms, ratio {overhead:.3f}"
    )
    # identical results — the disabled tracer must not perturb the run
    assert _normalize(base_res.returns) == _normalize(null_res.returns)
    assert base_res.clocks == null_res.clocks
    assert null_s < base_s * MAX_OVERHEAD + NOISE_FLOOR_S


def _timed_exchange(pattern, tracer) -> tuple[float, object]:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        res = run_exchange(pattern, dims=2, machine=BGQ, tracer=tracer)
        return time.perf_counter() - t0, res
    finally:
        gc.enable()


def test_bench_enabled_tracer_overhead():
    """A live tracer costs at most 1.25x on a K=1024 STFW exchange."""
    pattern = CommPattern.random(ENABLED_K, avg_degree=8, words=16, seed=1)

    _timed_exchange(pattern, None)  # warmup: plan build caches, allocator
    ratios = []
    for i in range(_ENABLED_PAIRS):
        tracer = Tracer("enabled-overhead")
        # adjacent runs share the host's speed phase; alternating which
        # runs first cancels any drift within a pair
        if i % 2:
            traced_s, traced_res = _timed_exchange(pattern, tracer)
            base_s, base_res = _timed_exchange(pattern, None)
        else:
            base_s, base_res = _timed_exchange(pattern, None)
            traced_s, traced_res = _timed_exchange(pattern, tracer)
        ratios.append(traced_s / base_s)

    overhead = statistics.median(ratios)
    print(
        f"\nenabled-tracer overhead @ K={ENABLED_K}: median traced/untraced "
        f"ratio {overhead:.3f} over {_ENABLED_PAIRS} pairs "
        f"(range {min(ratios):.3f}-{max(ratios):.3f})"
    )
    # the tracer observed the whole exchange without perturbing it
    assert traced_res.run.clocks == base_res.run.clocks
    phys = traced_res.plan.num_physical_messages
    sends = sum(v for n, _t, _l, v in tracer.counter_rows() if n == "engine.sends")
    assert sends == phys
    assert overhead <= MAX_ENABLED_OVERHEAD

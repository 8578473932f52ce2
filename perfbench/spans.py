"""In-memory span recorder for the traced benchmark run.

The benchmark measures the program from the outside: :func:`install`
wraps the public entry point of each layer (a module function or a
class method) so that every call records a span — name, start, end and
the enclosing span — into a :class:`Recorder`.  Nothing under ``src/``
is modified and ``repro.obs.Tracer`` is not used, so the program never
measures itself.  The wrappers exist only while :func:`install`'s
context is open.

With ``memory=True`` the recorder also keeps :mod:`tracemalloc` peaks:
each span's ``peak_bytes`` is the highest traced memory seen while the
span's *own* code ran (child intervals excluded), above the level at
which the span was entered.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "Span",
    "Recorder",
    "LAYER_HOOKS",
    "install",
    "self_times",
    "layer_totals",
    "chrome_trace_doc",
]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    peak_bytes: int = 0

    @property
    def dur_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """A stack of open spans plus the list of every span recorded."""

    def __init__(self, *, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # per open span: (traced memory at entry, peak seen in own code)
        self._mem: list[list[int]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem:
                top = self._mem[-1]
                top[1] = max(top[1], peak)
            tracemalloc.reset_peak()
            self._mem.append([cur, cur])
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            span = self.spans[idx]
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if self.memory:
                _cur, peak = tracemalloc.get_traced_memory()
                entry, own = self._mem.pop()
                span.peak_bytes = max(own, peak) - entry
                tracemalloc.reset_peak()

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` recording a span per call; ``name`` may depend on the args."""
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            with self.span(namer(*args, **kwargs) if namer else name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _exchange_kind(*args, on_fault: str = "raise", **kwargs) -> str:
    """Span name of a service exchange: fast path or tolerant path."""
    return "core.stfw.tolerant" if on_fault == "tolerate" else "core.stfw.fastpath"


#: (module, attribute path, span name) of every wrapped layer entry point.
#: The benchmark calls the entry points it drives through their module
#: attribute, so a wrapper installed here sees the call.
LAYER_HOOKS: tuple[tuple[str, str, str | Callable[..., str]], ...] = (
    ("repro.core.stfw", "run_exchange", "core.stfw.exchange"),
    ("repro.spmv.persistent", "run_exchange", _exchange_kind),
    ("repro.core.plan", "PlanBuilder.plan", "core.plan.build"),
    ("repro.spmv.persistent", "repair_plan", "core.plan.repair"),
    ("repro.simmpi.batch", "BatchSimMPI.run_planned_stfw", "simmpi.batch.run"),
    ("repro.core.stfw", "run_spmd", "simmpi.runtime.run"),
    ("repro.spmv.persistent", "run_spmd", "simmpi.runtime.run"),
    ("repro.obs.export", "chrome_trace", "obs.export"),
    ("repro.spmv.pattern", "spmv_pattern", "spmv.pattern"),
    ("repro.network.timing", "time_plan", "network.timing.time_plan"),
    ("repro.metrics.collect", "collect_stats", "metrics.collect"),
    ("repro.spmv.persistent", "PersistentExchangeService.run_epoch", "spmv.persistent.epoch"),
)


@contextlib.contextmanager
def install(recorder: Recorder, hooks=LAYER_HOOKS) -> Iterator[Recorder]:
    """Wrap every hook's target for the duration of the context."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module, path, name in hooks:
            owner: object = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, recorder.wrap(original, name))
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other
    and their durations sum to the part of the parent they cover.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end_ns - s.start_ns
    return [(s.end_ns - s.start_ns - c) / 1e9 for s, c in zip(spans, child)]


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, counting only the outermost of nested
    same-name spans so that recursion is not counted twice."""
    out: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            out[s.name] = out.get(s.name, 0.0) + s.dur_s
    return out


def chrome_trace_doc(passes: dict[str, list[Span]]) -> str:
    """Chrome trace_event JSON of several recorded passes, one pid each."""
    events = []
    for pid, (label, spans) in enumerate(passes.items(), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1, "args": {"name": label}}
        )
        if not spans:
            continue
        t0 = min(s.start_ns for s in spans)
        for s, own in zip(spans, self_times(spans)):
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": (s.start_ns - t0) / 1e3,
                    "dur": (s.end_ns - s.start_ns) / 1e3,
                    "args": {"self_s": own, "peak_mb": s.peak_bytes / 2**20},
                }
            )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})

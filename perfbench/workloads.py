"""The benchmark's four workloads.

Each workload is a closed loop: one client runs its operations
(exchanges, Table 3 cells or service epochs) one after another, each to
completion.  A workload provides

* ``setup(seed)`` — builds every input from the seed (timed as
  ``setup_s``);
* ``fresh(inputs)`` — per-pass state made outside the timed window
  (a new service for the service workload, ``None`` otherwise);
* ``ops(inputs, state)`` — the operations of one pass, as zero-argument
  calls; the timed window covers exactly these calls;
* ``check(inputs, state, outcomes)`` — verifies every outcome (outside
  the timed window) and returns the number of failed operations and the
  simulated-statistics digest, which must be identical for every pass
  run from one seed.

The pipeline calls each layer's entry point through its module
attribute (``stfw.run_exchange``, ``spmv_pattern_mod.spmv_pattern``, ...)
so that the traced run's wrappers (:mod:`perfbench.spans`) see every
call.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from repro.core import plan as plan_mod
from repro.core import stfw
from repro.core.dimensioning import make_vpt
from repro.core.pattern import CommPattern, PatternDelta
from repro.core.vpt import VirtualProcessTopology
from repro.errors import ObsError
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import InstanceCache, paper_dim_selection
from repro.metrics import collect as collect_mod
from repro.network import timing as timing_mod
from repro.network.machines import BGQ, CRAY_XC40, CRAY_XK7
from repro.obs import Tracer
from repro.obs import export as export_mod
from repro.simmpi.faults import FaultPlan
from repro.spmv.persistent import PersistentExchangeService

from .verify import cell_problems, exchange_bad_pairs

spmv_pattern_mod = importlib.import_module("repro.spmv.pattern")

__all__ = ["WORKLOADS", "ExchangeWorkload", "Table3Workload", "ServiceWorkload"]

#: pattern shape of every exchange and of the service:
#: ``CommPattern.random(K, avg_degree=DEGREE, words=WORDS)``
DEGREE = 8
WORDS = 16
#: the paper's T_2 topology, used by the exchanges and the service
DIMS = 2
#: the Table 3 instance
INSTANCE = "Si02"
#: the service runs EPOCHS epochs; each absorbs a drift step touching a
#: DRIFT share of the edges and runs under a fault plan dropping a DROP
#: share of the messages
EPOCHS = 3
DRIFT = 0.10
DROP = 0.005


def forwarded_words(plan) -> int:
    """Words moved beyond the direct volume: STFW's forwarding cost."""
    return plan.total_volume - int(plan.pattern.size.sum())


@dataclass
class ExchangeWorkload:
    """One planned 2-D STFW exchange of a random pattern on BG/Q.

    With ``export`` set the program's own ``repro.obs.Tracer`` is on and
    the pass ends with ``chrome_trace`` export.
    """

    name: str
    why: str
    K: int
    engine: str
    export: bool = False

    def setup(self, seed: int) -> CommPattern:
        return CommPattern.random(self.K, avg_degree=DEGREE, words=WORDS, seed=seed)

    def fresh(self, pattern: CommPattern) -> None:
        return None

    def ops(self, pattern: CommPattern, state: None) -> list:
        return [partial(self._exchange, pattern)]

    def _exchange(self, pattern: CommPattern):
        tracer = Tracer(self.name) if self.export else None
        result = stfw.run_exchange(
            pattern, dims=DIMS, machine=BGQ, engine=self.engine, tracer=tracer
        )
        doc = export_mod.chrome_trace(tracer, run=result.run) if self.export else None
        return result, tracer, doc

    def check(self, pattern: CommPattern, state, outcomes) -> tuple[int, dict]:
        (outcome,) = outcomes
        if isinstance(outcome, Exception):
            return 1, {"error": type(outcome).__name__}
        result, tracer, doc = outcome
        plan = result.plan
        phys = plan.num_physical_messages
        digest = {
            "makespan_us": repr(result.makespan_us),
            "events": 2 * phys,
            "physical_msgs": phys,
            "forwarded_words": forwarded_words(plan),
        }
        bad = exchange_bad_pairs(pattern, result.delivered)
        if self.export:
            engine_events = sum(
                value
                for name, _track, _labels, value in tracer.counter_rows()
                if name in ("engine.sends", "engine.recvs")
            )
            try:
                export_mod.validate_chrome_trace(doc)
            except ObsError:
                bad += 1
            digest.update(
                engine_events=int(engine_events),
                obs_records=len(tracer.spans) + len(tracer.counter_rows()),
                trace_bytes=len(doc.encode()),
                trace_sha256=hashlib.sha256(doc.encode()).hexdigest(),
            )
            bad += engine_events != 2 * phys
        return int(bad > 0), digest


@dataclass
class Table3Workload:
    """Table 3 blocks of one instance: BL plus Section 6.5's dimensions.

    The pipeline per cell is ``spmv_pattern`` -> ``PlanBuilder.plan`` per
    dimension -> ``collect_stats`` -> ``time_plan``, from a cold builder
    and without the on-disk artifact cache.
    """

    name: str
    why: str
    #: (machine, K) blocks, in the order ``repro.experiments.table3`` runs them
    cells: tuple = ((CRAY_XK7, 8192), (CRAY_XC40, 4096))
    scale: float = ExperimentConfig.scale

    def setup(self, seed: int) -> tuple:
        cfg = ExperimentConfig(seed=seed, scale=self.scale)
        cache = InstanceCache(cfg)
        return tuple(
            (machine, K, cache.matrix(INSTANCE, K), cache.partition(INSTANCE, K),
             cfg.contention)
            for machine, K in self.cells
        )

    def fresh(self, inputs: tuple) -> None:
        return None

    def ops(self, inputs: tuple, state: None) -> list:
        return [partial(self._cell, *cell) for cell in inputs]

    def _cell(self, machine, K, A, partition, contention):
        pattern = spmv_pattern_mod.spmv_pattern(A, partition)
        builder = plan_mod.PlanBuilder(pattern)
        plans, rows = {}, {}
        for n_dims in [1] + paper_dim_selection(K):
            plan = builder.plan(make_vpt(K, n_dims))
            stats = collect_mod.collect_stats(plan)
            stats.comm_time_us = timing_mod.time_plan(plan, machine, contention=contention).total_us
            plans[stats.scheme] = plan
            rows[stats.scheme] = stats
        return pattern, plans, rows

    def check(self, inputs: tuple, state, outcomes) -> tuple[int, dict]:
        failed = 0
        digest: dict = {"physical_msgs": 0, "forwarded_words": 0, "cells": {}}
        for (machine, K, *_), outcome in zip(inputs, outcomes):
            label = f"{machine.name}/K{K}"
            if isinstance(outcome, Exception):
                failed += 1
                digest["cells"][label] = {"error": type(outcome).__name__}
                continue
            pattern, plans, rows = outcome
            failed += bool(cell_problems(pattern, plans))
            table = {}
            for scheme, plan in plans.items():
                s = rows[scheme]
                phys = plan.num_physical_messages
                fwd = forwarded_words(plan)
                table[scheme] = [
                    s.mmax, repr(s.mavg), repr(s.vavg), repr(s.comm_time_us), phys, fwd
                ]
                digest["physical_msgs"] += phys
                digest["forwarded_words"] += fwd
            digest["cells"][label] = table
        return failed, digest


@dataclass
class ServiceInputs:
    pattern: CommPattern
    vpt: VirtualProcessTopology
    deltas: list = field(default_factory=list)
    #: the pattern after each epoch's delta
    patterns: list = field(default_factory=list)
    faults: list = field(default_factory=list)


@dataclass
class ServiceWorkload:
    """A self-healing persistent exchange absorbing drift under faults."""

    name: str
    why: str
    K: int

    def setup(self, seed: int) -> ServiceInputs:
        pattern = CommPattern.random(self.K, avg_degree=DEGREE, words=WORDS, seed=seed)
        inputs = ServiceInputs(pattern, make_vpt(self.K, DIMS))
        current = pattern
        for epoch in range(EPOCHS):
            epoch_seed = seed * 1000 + epoch
            delta = PatternDelta.random(current, DRIFT, seed=epoch_seed)
            current = current.apply_delta(delta)
            inputs.deltas.append(delta)
            inputs.patterns.append(current)
            inputs.faults.append(FaultPlan(default_drop=DROP, seed=epoch_seed))
        self.fresh(inputs)  # service construction is part of set-up
        return inputs

    def fresh(self, inputs: ServiceInputs) -> PersistentExchangeService:
        return PersistentExchangeService(
            inputs.pattern, inputs.vpt, machine=BGQ, validate=False, engine="event"
        )

    def ops(self, inputs: ServiceInputs, service: PersistentExchangeService) -> list:
        return [
            partial(service.run_epoch, delta, fault_plan=faults)
            for delta, faults in zip(inputs.deltas, inputs.faults)
        ]

    def check(self, inputs: ServiceInputs, service, outcomes) -> tuple[int, dict]:
        bad = []
        epochs = []
        actions: Counter = Counter()
        digest: dict = {"physical_msgs": 0, "forwarded_words": 0}
        for pattern, report in zip(inputs.patterns, outcomes):
            plan = plan_mod.build_plan(pattern, inputs.vpt)
            digest["physical_msgs"] += plan.num_physical_messages
            digest["forwarded_words"] += forwarded_words(plan)
            if isinstance(report, Exception):
                bad.append(True)
                epochs.append({"error": type(report).__name__})
                continue
            actions[report.action] += 1
            epochs.append(
                [report.action, repr(report.makespan_us), report.expected, report.delivered]
            )
            bad.append(
                bool(report.missing or report.corrupt_pairs)
                or exchange_bad_pairs(pattern, report.result.delivered) > 0
            )
        # the repaired plan the service ends on must equal a fresh build
        bad[-1] = bad[-1] or not plan_mod.plans_identical(service.plan, plan)
        digest.update(epochs=epochs, actions=dict(sorted(actions.items())))
        return sum(bad), digest


WORKLOADS = {
    w.name: w
    for w in (
        ExchangeWorkload(
            "stfw-batch-k65536",
            "largest K on the batch engine: payload marshaling and plan building "
            "outweigh the vectorised sweeps; no per-event loop, no tracer",
            K=65536,
            engine="batch",
        ),
        ExchangeWorkload(
            "stfw-event-traced-k4096",
            "per-event engine where its O(K) scans show, tracer on and Chrome export "
            "last, as the observability aim intends",
            K=4096,
            engine="event",
            export=True,
        ),
        Table3Workload(
            "paper-table3",
            "the analytic path every paper table runs: pattern extraction and plan "
            "building dominate; no emulator, no payloads",
        ),
        ServiceWorkload(
            "service-drift-faults-k256",
            "the only in-place plan repair and the only tolerant event-engine path "
            "(timeouts, retries, escalation policy)",
            K=256,
        ),
    )
}

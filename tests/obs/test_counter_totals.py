"""Counter totals of traced exchanges: pinned goldens and an oracle.

The event engine and the STFW process accumulate their hot-path
counters (``engine.*`` per rank, ``stfw.*`` per stage and per rank) in
locals and flush them in bulk.  These tests hold the flushed totals to
what one increment per message would produce:

* two goldens pin runs that end *abnormally* — a faulted T_2(4,4)
  exchange salvaged with ``on_fault="partial"`` (drops, duplicates and
  a scheduled crash) and two deadlocked runs — so totals survive every
  exit path of the engine, not only a clean return;
* an oracle rebuilds every ``engine.*``/``stfw.*``/``direct.*`` key and
  value from the message trace and the dimension-ordered routes, so
  key *presence* is checked too (a zero-length payload still creates
  its ``stfw.origin_words`` key, with value 0.0).

Regenerate the goldens after an intentional format change with::

    PYTHONPATH=src python tests/obs/test_counter_totals.py regen
"""

import json
import os

import numpy as np
import pytest

from repro.core import CommPattern, make_vpt, run_exchange
from repro.core.routing import route
from repro.errors import DeadlockError
from repro.network import BGQ
from repro.obs import Tracer, jsonl_events
from repro.simmpi import run_spmd
from repro.simmpi.faults import FaultPlan

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FAULTED_GOLDEN = os.path.join(GOLDEN_DIR, "t2_faulted.events.jsonl")
DEADLOCK_GOLDEN = os.path.join(GOLDEN_DIR, "deadlock.counters.json")

#: the counters the aggregated hot paths emit
AGGREGATED = (
    "engine.sends",
    "engine.sent_words",
    "engine.recvs",
    "engine.recv_words",
    "stfw.stage_messages",
    "stfw.stage_words",
    "stfw.origin_words",
    "stfw.forwarded_words",
    "direct.messages",
    "direct.words",
)


def _golden_pattern():
    return CommPattern.random(16, avg_degree=3, seed=2, words=4)


def faulted_exchange():
    """T_2(4,4) under drops, duplicates and one crash, salvaged."""
    plan = FaultPlan(
        crashes={5: 8.0}, default_drop=0.1, default_duplicate=0.1, seed=0
    )
    tracer = Tracer("t2-faulted")
    res = run_exchange(
        _golden_pattern(), make_vpt(16, 2), machine=BGQ, trace=True,
        tracer=tracer, fault_plan=plan, on_fault="partial",
    )
    return tracer, res


def _stfw_crash_deadlock() -> Tracer:
    """A planned STFW exchange that deadlocks behind a crashed rank."""
    tracer = Tracer("stfw-crash")
    with pytest.raises(DeadlockError):
        run_exchange(
            _golden_pattern(), make_vpt(16, 2), machine=BGQ, tracer=tracer,
            fault_plan=FaultPlan(crashes={5: 8.0}), on_fault="raise",
        )
    return tracer


def _spmd_mismatch_deadlock() -> Tracer:
    """Ring sends that all land, then every rank waits on a wrong tag."""
    tracer = Tracer("spmd-mismatch")

    def proc(comm):
        right = (comm.rank + 1) % comm.size
        comm.send(right, np.arange(comm.rank + 1), tag=1)
        comm.send(right, np.arange(2), tag=2)
        yield comm.recv(tag=1)
        yield comm.recv(tag=3)  # never sent

    with pytest.raises(DeadlockError):
        run_spmd(8, proc, machine=BGQ, tracer=tracer)
    return tracer


DEADLOCKS = {
    "stfw_crash": _stfw_crash_deadlock,
    "spmd_mismatch": _spmd_mismatch_deadlock,
}


def _rows_json(tracer: Tracer) -> list:
    return [[n, t, labels, v] for n, t, labels, v in tracer.counter_rows()]


class TestAbnormalExitGoldens:
    def test_faulted_partial_jsonl_matches_golden(self):
        tracer, res = faulted_exchange()
        assert not res.completed and res.crashed == (5,)
        names = {i.name for i in tracer.instants}
        assert {"fault.drop", "fault.duplicate", "fault.crash"} <= names
        with open(FAULTED_GOLDEN) as fh:
            assert jsonl_events(tracer) == fh.read()

    @pytest.mark.parametrize("case", sorted(DEADLOCKS))
    def test_deadlock_counter_rows_match_golden(self, case):
        with open(DEADLOCK_GOLDEN) as fh:
            golden = json.load(fh)
        rows = _rows_json(DEADLOCKS[case]())
        assert rows  # the run did send before it stalled
        assert rows == golden[case]


# ----------------------------------------------------------------------
# Oracle: per-message totals rebuilt from the trace and the routes
# ----------------------------------------------------------------------


def _add(out, name, track, labels, value):
    key = (name, track, tuple(sorted(labels.items())))
    out[key] = out.get(key, 0.0) + value


def _oracle(res, payloads, vpt=None):
    """Expected aggregated counters of a clean traced exchange."""
    out: dict = {}
    for rec in res.run.trace:
        _add(out, "engine.sends", rec.source, {}, 1)
        _add(out, "engine.sent_words", rec.source, {}, rec.words)
        _add(out, "engine.recvs", rec.dest, {}, 1)
        _add(out, "engine.recv_words", rec.dest, {}, rec.words)
        if vpt is not None and rec.tag < vpt.n:  # not a count message
            _add(out, "stfw.stage_messages", None, {"stage": rec.tag}, 1)
            _add(out, "stfw.stage_words", None, {"stage": rec.tag}, rec.words)
    for src, sends in enumerate(payloads):
        for dst, payload in sends.items():
            if vpt is None:
                _add(out, "direct.messages", None, {}, 1)
                _add(out, "direct.words", None, {}, len(payload))
                continue
            for i, hop in enumerate(route(vpt, src, dst)):
                name = "stfw.origin_words" if i == 0 else "stfw.forwarded_words"
                _add(out, name, hop.sender, {}, len(payload))
    return out


def _observed(tracer):
    return {
        (name, track, tuple(sorted(labels.items()))): value
        for name, track, labels, value in tracer.counter_rows()
        if name in AGGREGATED
    }


def _payloads(pattern):
    """``{dst: int64 array of the edge's size}`` per rank."""
    out = [dict() for _ in range(pattern.K)]
    for s, t, n in zip(pattern.src.tolist(), pattern.dst.tolist(), pattern.size.tolist()):
        out[s][t] = np.full(n, s * pattern.K + t, dtype=np.int64)
    return out


#: every backend that runs planned exchanges; the sharded one flushes
#: per shard and the coordinator merges the shard tracers
ENGINES = {"event": {}, "batch": {}, "sharded": {"workers": 2}}


def _traced(pattern, vpt=None, payloads=None, engine="event", **kw):
    tracer = Tracer()
    res = run_exchange(
        pattern, vpt, payloads=payloads, machine=BGQ, trace=True,
        tracer=tracer, engine=engine, **ENGINES[engine], **kw,
    )
    return tracer, res


class TestOracleTotals:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize(
        "dims,dim_sizes", [(1, (16,)), (2, (4, 4)), (3, (4, 2, 2))]
    )
    def test_stfw_topologies(self, dims, dim_sizes, engine):
        pattern = _golden_pattern()
        vpt = make_vpt(16, dims)
        assert vpt.dim_sizes == dim_sizes
        payloads = _payloads(pattern)
        tracer, res = _traced(pattern, vpt, payloads, engine)
        assert _observed(tracer) == _oracle(res, payloads, vpt)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_zero_length_payload_keeps_its_keys(self, engine):
        base = _golden_pattern()
        # every payload of rank 3 is empty, so all its origin words are 0
        pattern = CommPattern.from_arrays(
            16, base.src, base.dst, np.where(base.src == 3, 0, base.size)
        )
        vpt = make_vpt(16, 2)
        payloads = _payloads(pattern)
        assert payloads[3]
        tracer, res = _traced(pattern, vpt, payloads, engine)
        observed = _observed(tracer)
        assert observed[("stfw.origin_words", 3, ())] == 0.0
        assert observed == _oracle(res, payloads, vpt)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_header_words(self, engine):
        pattern = _golden_pattern()
        vpt = make_vpt(16, 2)
        payloads = _payloads(pattern)
        tracer, res = _traced(pattern, vpt, payloads, engine, header_words=3)
        observed = _observed(tracer)
        assert observed == _oracle(res, payloads, vpt)
        # headers are charged on the wire, not counted as payload words
        stage_words = sum(v for k, v in observed.items() if k[0] == "stfw.stage_words")
        payload_words = sum(
            v for k, v in observed.items()
            if k[0] in ("stfw.origin_words", "stfw.forwarded_words")
        )
        assert stage_words > payload_words

    def test_dynamic_counts(self):
        pattern = _golden_pattern()
        vpt = make_vpt(16, 2)
        payloads = _payloads(pattern)
        tracer, res = _traced(pattern, vpt, payloads, mode="dynamic")
        observed = _observed(tracer)
        assert observed == _oracle(res, payloads, vpt)
        # the count messages are engine sends but not stage messages
        sends = sum(v for k, v in observed.items() if k[0] == "engine.sends")
        staged = sum(v for k, v in observed.items() if k[0] == "stfw.stage_messages")
        assert sends > staged

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_direct_exchange(self, engine):
        pattern = _golden_pattern()
        payloads = _payloads(pattern)
        tracer, res = _traced(pattern, None, payloads, engine, scheme="direct")
        assert _observed(tracer) == _oracle(res, payloads)

    def test_repeated_runs_accumulate(self):
        pattern = _golden_pattern()
        vpt = make_vpt(16, 2)
        payloads = _payloads(pattern)
        tracer = Tracer()
        for _ in range(2):
            res = run_exchange(
                pattern, vpt, payloads=payloads, machine=BGQ, trace=True,
                tracer=tracer,
            )
        once = _oracle(res, payloads, vpt)
        assert _observed(tracer) == {k: 2 * v for k, v in once.items()}


def _regen():  # pragma: no cover - maintenance helper
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    tracer, _ = faulted_exchange()
    with open(FAULTED_GOLDEN, "w") as fh:
        fh.write(jsonl_events(tracer))
    golden = {case: _rows_json(make()) for case, make in sorted(DEADLOCKS.items())}
    with open(DEADLOCK_GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"regenerated counter goldens in {GOLDEN_DIR}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if sys.argv[1:] == ["regen"]:
        _regen()
    else:
        raise SystemExit("usage: test_counter_totals.py regen")

"""The output checks must flag every kind of wrong exchange result."""

import numpy as np
import pytest

from perfbench.verify import cell_problems, exchange_bad_pairs
from repro.core.dimensioning import make_vpt
from repro.core.pattern import CommPattern
from repro.core.plan import PlanBuilder
from repro.core.stfw import run_exchange
from repro.network.machines import BGQ

K = 16


@pytest.fixture
def pattern():
    return CommPattern.random(K, avg_degree=3, words=4, seed=5)


def perfect(pattern):
    delivered = [[] for _ in range(pattern.K)]
    for s, t, w in zip(pattern.src, pattern.dst, pattern.size):
        delivered[int(t)].append((int(s), np.full(int(w), s * K + t, dtype=np.int64)))
    return delivered


def test_correct_exchange_passes(pattern):
    assert exchange_bad_pairs(pattern, perfect(pattern)) == 0
    for engine in ("event", "batch"):
        result = run_exchange(pattern, dims=2, machine=BGQ, engine=engine)
        assert exchange_bad_pairs(pattern, result.delivered) == 0


def test_dropped_pair(pattern):
    delivered = perfect(pattern)
    rank = next(t for t, m in enumerate(delivered) if m)
    delivered[rank].pop()
    assert exchange_bad_pairs(pattern, delivered) == 1


def test_wrong_payload_word(pattern):
    delivered = perfect(pattern)
    rank = next(t for t, m in enumerate(delivered) if m)
    src, payload = delivered[rank][0]
    payload = payload.copy()
    payload[-1] += 1
    delivered[rank][0] = (src, payload)
    assert exchange_bad_pairs(pattern, delivered) == 1


def test_duplicate_delivery(pattern):
    delivered = perfect(pattern)
    rank = next(t for t, m in enumerate(delivered) if m)
    delivered[rank].append(delivered[rank][0])
    assert exchange_bad_pairs(pattern, delivered) == 1


def test_wrong_size_dtype_and_unknown_pair(pattern):
    delivered = perfect(pattern)
    rank = next(t for t, m in enumerate(delivered) if len(m) >= 2)
    src0, p0 = delivered[rank][0]
    src1, p1 = delivered[rank][1]
    delivered[rank][0] = (src0, p0[:-1])
    delivered[rank][1] = (src1, p1.astype(np.float64))
    assert exchange_bad_pairs(pattern, delivered) == 2
    # a pair the pattern does not hold counts once per delivery
    delivered = perfect(pattern)
    known = {(int(s), int(t)) for s, t in zip(pattern.src, pattern.dst)}
    s, t = next((s, t) for s in range(K) for t in range(K) if s != t and (s, t) not in known)
    delivered[t].append((s, np.full(4, s * K + t, dtype=np.int64)))
    assert exchange_bad_pairs(pattern, delivered) == 1


def test_crashed_rank_slot_is_empty(pattern):
    delivered = perfect(pattern)
    rank = next(t for t, m in enumerate(delivered) if m)
    n = len(delivered[rank])
    delivered[rank] = None
    assert exchange_bad_pairs(pattern, delivered) == n


def test_cell_problems(pattern):
    builder = PlanBuilder(pattern)
    plans = {"BL": builder.plan(make_vpt(K, 1)), "STFW2": builder.plan(make_vpt(K, 2))}
    assert cell_problems(pattern, plans) == []
    other = CommPattern.random(K, avg_degree=5, words=4, seed=6)
    assert any("BL moves" in p for p in cell_problems(other, plans))
    assert cell_problems(pattern, {"STFW2": plans["STFW2"]}) == ["no BL plan"]

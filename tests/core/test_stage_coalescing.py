"""Coalesced stage arrays and the sort-based dedup helper.

``PlanBuilder`` coalesces each stage by a run-boundary scan over the
sorted ``sender * K + receiver`` keys.  These tests pin its stage
arrays — values and dtypes — to an in-test reference that aggregates
with ``np.unique``, and pin ``sort_unique`` to ``np.unique`` itself.
"""

import numpy as np
import pytest

from repro.core import CommPattern, PatternDelta, make_vpt
from repro.core.pattern import sort_unique
from repro.core.plan import PlanBuilder

_FIELDS = ("sender", "receiver", "nsub", "payload_words", "route_key")


def reference_stage(pattern, w0, w1, coalesce):
    """Stage ``w0 -> w1`` of ``pattern``, aggregated with ``np.unique``."""
    K = pattern.K
    src, dst, size = pattern.src, pattern.dst, pattern.size
    holder = src - src % w0 + dst % w0
    nxt = src - src % w1 + dst % w1
    moved = holder != nxt
    senders, receivers, sizes = holder[moved], nxt[moved], size[moved]
    mkey = senders * np.int64(K) + receivers
    if not coalesce:
        order = np.argsort(mkey, kind="stable")
        return {
            "sender": senders[order],
            "receiver": receivers[order],
            "nsub": np.ones(senders.size, dtype=np.int64),
            "payload_words": sizes[order],
            "route_key": None,
        }
    uniq, inv = np.unique(mkey, return_inverse=True)
    return {
        "sender": (uniq // K).astype(np.int64),
        "receiver": (uniq % K).astype(np.int64),
        "nsub": np.bincount(inv, minlength=uniq.size).astype(np.int64),
        "payload_words": np.bincount(inv, weights=sizes, minlength=uniq.size).astype(
            np.int64
        ),
        "route_key": uniq,
    }


def assert_stages_match_reference(plan, pattern, coalesce=True):
    weights = plan.vpt.weights
    for d, st in enumerate(plan.stages):
        want = reference_stage(pattern, weights[d], weights[d + 1], coalesce)
        for field in _FIELDS:
            got, ref = getattr(st, field), want[field]
            if ref is None:
                assert got is None, f"stage {d} {field}"
                continue
            assert got.dtype == ref.dtype, f"stage {d} {field} dtype"
            np.testing.assert_array_equal(got, ref, err_msg=f"stage {d} {field}")


class TestStageArraysMatchUniqueReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dims", [1, 2, 3, 6])
    def test_random_patterns(self, seed, dims):
        p = CommPattern.random(64, avg_degree=7, hot_processes=2, seed=seed, words=3)
        assert_stages_match_reference(PlanBuilder(p).plan(make_vpt(64, dims)), p)

    def test_variable_sizes(self):
        rng = np.random.default_rng(4)
        p = CommPattern.random(128, avg_degree=9, seed=4)
        p = CommPattern(128, p.src, p.dst, rng.integers(0, 50, p.num_messages))
        assert_stages_match_reference(PlanBuilder(p).plan(make_vpt(128, 3)), p)

    @pytest.mark.parametrize("K,dims", [(96, 2), (96, 3), (12, 2), (30, 3)])
    def test_non_power_of_two_K(self, K, dims):
        p = CommPattern.random(K, avg_degree=5, seed=K, words=2)
        assert_stages_match_reference(PlanBuilder(p).plan(make_vpt(K, dims)), p)

    def test_empty_stages(self):
        # every message differs from its source only in the lowest
        # digit, so every stage but the first moves nothing
        K = 16
        src = np.arange(K, dtype=np.int64)
        dst = src ^ 1
        p = CommPattern(K, src, dst, np.full(K, 3))
        plan = PlanBuilder(p).plan(make_vpt(K, 4))
        assert [st.num_messages for st in plan.stages] == [K, 0, 0, 0]
        assert_stages_match_reference(plan, p)

    def test_empty_pattern(self):
        p = CommPattern(8, [], [], [])
        plan = PlanBuilder(p).plan(make_vpt(8, 3))
        assert_stages_match_reference(plan, p)
        for st in plan.stages:
            assert st.route_key.dtype == np.int64 and st.route_key.size == 0

    def test_K_one(self):
        # no topology has one process, so drive the stage builder directly
        p = CommPattern(1, [], [], [])
        arrays = PlanBuilder(p)._stage_arrays(1, 1, True)
        for got in arrays:
            assert got.dtype == np.int64 and got.size == 0

    @pytest.mark.parametrize("dims", [2, 3])
    def test_coalesce_false(self, dims):
        p = CommPattern.random(64, avg_degree=6, seed=8, words=2)
        plan = PlanBuilder(p).plan(make_vpt(64, dims), coalesce=False)
        assert_stages_match_reference(plan, p, coalesce=False)

    def test_chained_apply_delta(self):
        p = CommPattern.random(64, avg_degree=6, seed=12, words=4)
        vpts = [make_vpt(64, n) for n in (2, 3)]
        builder = PlanBuilder(p)
        for vpt in vpts:
            builder.plan(vpt)  # warm the memos the repairs then fold into
        current = p
        for step in range(4):
            delta = PatternDelta.random(current, 0.1, seed=100 + step)
            current = builder.apply_delta(delta)
            for vpt in vpts:
                assert_stages_match_reference(builder.plan(vpt), current)


class TestSortUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            np.array([1, 1, 2, 5, 5, 5, 9], dtype=np.int64),
            np.array([9, 1, 5, 1, 2, 5, 5, -3], dtype=np.int64),
            np.random.default_rng(0).integers(0, 1000, 5000),
            np.array([], dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.array([3, 3, 3], dtype=np.int32),
            np.arange(10, dtype=np.int64)[::-1],
        ],
        ids=["sorted", "unsorted", "random", "empty", "single", "int32", "reversed"],
    )
    def test_equals_np_unique(self, keys):
        got, want = sort_unique(keys), np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_input_untouched(self):
        keys = np.array([3, 1, 2, 1], dtype=np.int64)
        sort_unique(keys)
        np.testing.assert_array_equal(keys, [3, 1, 2, 1])

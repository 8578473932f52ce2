"""Output checks run after each timed pass, outside the timed window."""

from __future__ import annotations

from operator import itemgetter

import numpy as np

__all__ = ["exchange_bad_pairs", "cell_problems"]

_INT64 = np.dtype(np.int64)


def _int64_vector(payload) -> bool:
    return type(payload) is np.ndarray and payload.dtype == _INT64 and payload.ndim == 1


def exchange_bad_pairs(pattern, delivered) -> int:
    """Number of pairs an exchange got wrong.

    Every ``(s, t)`` pair of ``pattern`` must reach rank ``t`` exactly
    once, as an ``int64`` vector of the pair's size whose every word is
    ``s * K + t``.  A pair that is missing, duplicated, resized or
    carries a wrong word counts once; so does each delivery of a pair
    the pattern does not contain.  ``delivered[t]`` lists rank ``t``'s
    ``(source, payload)`` deliveries (``None`` for a rank that holds
    none).
    """
    K = pattern.K
    want = pattern.src * np.int64(K) + pattern.dst
    order = np.argsort(want, kind="stable")
    want, want_size = want[order], pattern.size[order]

    pairs = [pair for m in delivered if m for pair in m]
    n = len(pairs)
    dst = np.repeat(
        np.arange(len(delivered), dtype=np.int64), [len(m) if m else 0 for m in delivered]
    )
    src = np.fromiter(map(itemgetter(0), pairs), dtype=np.int64, count=n)
    key = src * np.int64(K) + dst
    payloads = list(map(itemgetter(1), pairs))

    good = np.fromiter(map(_int64_vector, payloads), dtype=bool, count=n)
    typed = np.flatnonzero(good)
    vectors = payloads if typed.size == n else [payloads[i] for i in typed]
    lens = np.zeros(n, dtype=np.int64)
    if vectors:
        lens[typed] = np.fromiter(map(len, vectors), dtype=np.int64, count=typed.size)
        owner = np.repeat(typed, lens[typed])
        wrong = np.concatenate(vectors) != key[owner]
        good[np.unique(owner[wrong])] = False

    slot = np.searchsorted(want, key)
    slot_ok = slot < want.size
    known = np.zeros(n, dtype=bool)
    known[slot_ok] = want[slot[slot_ok]] == key[slot_ok]
    good &= known
    good[known] &= lens[known] == want_size[slot[known]]

    deliveries = np.bincount(slot[known], minlength=want.size)
    good_deliveries = np.bincount(slot[good], minlength=want.size)
    pair_ok = (deliveries == 1) & (good_deliveries == 1)
    return int((~pair_ok).sum()) + int((~known).sum())


def cell_problems(pattern, plans) -> list[str]:
    """Problems of one Table 3 cell: ``plans`` maps scheme label to plan.

    Each plan must respect the per-stage bound ``k_d - 1``
    (``check_stage_bounds``) and the total bound ``sum(k_d - 1)`` on the
    messages a process sends; the BL plan must move exactly the
    pattern's volume.
    """
    from repro.errors import PlanError

    out = []
    volume = int(pattern.size.sum())
    for scheme, plan in plans.items():
        try:
            plan.check_stage_bounds()
        except PlanError as exc:
            out.append(f"{scheme}: {exc}")
        bound = sum(k - 1 for k in plan.vpt.dim_sizes)
        worst = int(plan.sent_counts().max(initial=0))
        if worst > bound:
            out.append(f"{scheme}: a process sends {worst} messages, bound is {bound}")
    bl = plans.get("BL")
    if bl is None:
        out.append("no BL plan")
    elif bl.total_volume != volume:
        out.append(f"BL moves {bl.total_volume} words, pattern holds {volume}")
    return out

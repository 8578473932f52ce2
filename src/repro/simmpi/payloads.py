"""Columnar payloads: the batch engine's input and result source.

A planned exchange moves one payload per pattern edge ``(src, dst)``.
The event engine's process functions take them as per-rank
``{destination: payload}`` dicts; the batch engine
(:mod:`repro.simmpi.batch`) takes them as columns instead — edge arrays
plus, for synthetic payloads, one int64 word buffer with CSR offsets by
edge index — so building, checking and delivering half a million
payloads costs a few array operations rather than half a million
Python objects on the way in.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import PlanError, SimMPIError

__all__ = ["ColumnarPayloads"]


class ColumnarPayloads:
    """One payload per edge, stored by column.

    ``src``/``dst``/``size`` are int64 edge arrays in rank-major SendSet
    order: ranks ascending and, within a rank, its send order.  That is
    the order the event engine's process functions iterate
    ``send_data.items()``, so it fixes every sender's send sequence and
    hence every ``seq`` tie-break of the delivery order.

    The payload of edge ``e`` is ``values[offsets[e]:offsets[e + 1]]``,
    a 1-D int64 view into one shared buffer, for synthetic payloads
    (:meth:`synthetic`), or ``objects[e]`` for caller-supplied ones
    (:meth:`from_dicts`).
    """

    __slots__ = ("K", "src", "dst", "size", "values", "offsets", "objects")

    def __init__(
        self,
        K: int,
        src: np.ndarray,
        dst: np.ndarray,
        size: np.ndarray,
        *,
        values: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        objects: list[Any] | None = None,
    ):
        if (values is None) == (objects is None):
            raise PlanError("ColumnarPayloads needs exactly one of values= or objects=")
        self.K = int(K)
        self.src = src
        self.dst = dst
        self.size = size
        self.values = values
        self.offsets = offsets
        self.objects = objects

    @classmethod
    def synthetic(cls, pattern) -> "ColumnarPayloads":
        """Synthetic verifiable payloads for ``pattern``.

        Message ``m_ij`` carries ``size`` copies of the word ``i * K + j``,
        so a delivered payload identifies its (source, destination)
        pair.  All words live in one buffer built by a single
        ``np.repeat``.
        """
        K = pattern.K
        order = np.argsort(pattern.src, kind="stable")
        src = pattern.src[order]
        dst = pattern.dst[order]
        size = pattern.size[order]
        offsets = np.zeros(size.size + 1, dtype=np.int64)
        np.cumsum(size, out=offsets[1:])
        values = np.repeat(src * np.int64(K) + dst, size)
        return cls(K, src, dst, size, values=values, offsets=offsets)

    @classmethod
    def from_dicts(
        cls, payloads: Sequence[Mapping[int, Any]], K: int
    ) -> "ColumnarPayloads":
        """Columns of caller-supplied per-rank ``{destination: payload}`` dicts.

        Edges come out ranks ascending and, within a rank, in the dict's
        insertion order.  Every payload must be sized (``len()``-able):
        its length is the message's word count.
        """
        if len(payloads) != K:
            raise SimMPIError(
                f"engine='batch' got {len(payloads)} payload dicts for K={K} ranks"
            )
        counts = [len(send_data) for send_data in payloads]
        src = np.repeat(np.arange(K, dtype=np.int64), counts)
        dst = np.fromiter(
            (int(d) for send_data in payloads for d in send_data),
            dtype=np.int64,
            count=src.size,
        )
        objects = [p for send_data in payloads for p in send_data.values()]
        try:
            size = np.fromiter(map(len, objects), dtype=np.int64, count=len(objects))
        except TypeError as exc:
            raise PlanError("payloads must be sized (len()-able) objects") from exc
        return cls(K, src, dst, size, objects=objects)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def _payloads(self, edges: np.ndarray) -> list[Any]:
        """The payload objects of ``edges``, in the order given."""
        if self.objects is not None:
            objects = self.objects
            return [objects[e] for e in edges.tolist()]
        values = self.values
        lo = self.offsets[edges].tolist()
        hi = self.offsets[edges + 1].tolist()
        return [values[a:b] for a, b in zip(lo, hi)]

    def to_dicts(self) -> list[dict[int, Any]]:
        """Per-rank ``{destination: payload}`` dicts, the event engine's input."""
        send_data: list[dict[int, Any]] = [{} for _ in range(self.K)]
        edges = np.arange(self.num_edges, dtype=np.int64)
        for s, t, p in zip(self.src.tolist(), self.dst.tolist(), self._payloads(edges)):
            send_data[s][t] = p
        return send_data

    def deliver(self, edges: np.ndarray, counts: np.ndarray) -> list[list[tuple[int, Any]]]:
        """Per-rank ``(origin, payload)`` delivery lists from one gather.

        ``edges`` lists the delivered edge indices grouped by receiver
        (ranks ascending), each group in its delivery order;
        ``counts[r]`` is rank ``r``'s group length.
        """
        pairs = list(zip(self.src[edges].tolist(), self._payloads(edges)))
        ends = np.cumsum(counts).tolist()
        starts = [0] + ends[:-1]
        return [pairs[a:b] for a, b in zip(starts, ends)]

"""The reverse-postorder priority worklist shared by every scheduler:
the framework driver loops, the dense reference solver, and the
parallel region scheduler all drain the same structure.
"""

from __future__ import annotations

import heapq


class PriorityWorklist:
    """A worklist ordered by reverse-postorder priority, with membership
    dedup and monotone-sweep ("pass") accounting shared by both solvers."""

    def __init__(self, order: dict[str, int]):
        self._order = order
        self._heap: list[tuple[int, int, object]] = []
        self._queued: set[object] = set()
        self._seq = 0
        self._last_priority: int | None = None
        self.passes = 0
        self.pops = 0

    def __bool__(self) -> bool:
        return bool(self._heap)

    def priority_of(self, proc: str) -> int:
        # Procedures introduced after the order was computed (impossible
        # today, defensive) sort last.
        return self._order.get(proc, len(self._order))

    def push(self, item: object, proc: str) -> None:
        if item in self._queued:
            return
        self._queued.add(item)
        self._seq += 1
        heapq.heappush(self._heap, (self.priority_of(proc), self._seq, item))

    def pop(self) -> object:
        priority, _, item = heapq.heappop(self._heap)
        self._queued.discard(item)
        self.pops += 1
        if self._last_priority is None or priority <= self._last_priority:
            self.passes += 1  # the ascending run wrapped: a new sweep
        self._last_priority = priority
        return item

    def begin_segment(self) -> int:
        """Open a new pass-counting segment (one region's convergence):
        the next pop starts a fresh ascending run instead of comparing
        against the previous region's last priority — SCC member
        priorities of different regions may interleave, and a cross-
        boundary comparison would count spurious sweeps. Returns the
        pass count at the boundary, so ``passes - mark`` is the
        segment-local sweep count."""
        self._last_priority = None
        return self.passes

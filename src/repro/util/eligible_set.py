"""Section V's calendar-queue request set, as a standalone substrate.

Section V offers two implementations for tracking (eligible, deadline)
requests: the augmented binary tree of [16]
(:class:`repro.util.eligible_tree.EligibleTree`) and "a calendar queue
[4] for keeping track of the eligible times in conjunction with a heap
for maintaining the requests' deadlines", noting the latter is "slightly
faster on average".  This module implements the calendar+heap variant
with the same protocol as the tree.  H-FSC itself keeps its requests in
the flat future/ready heaps of :mod:`repro.core.flatstate`; the two
structures here survive as substrates that
``tests/test_eligible_set.py`` checks against those heaps and
``benchmarks/bench_ablation.py`` times.
"""

from __future__ import annotations

from typing import Generic, Hashable, Optional, Tuple, TypeVar

from repro.util.calendar_queue import CalendarQueue
from repro.util.heap import IndexedHeap

ItemT = TypeVar("ItemT", bound=Hashable)


class CalendarEligibleSet(Generic[ItemT]):
    """Calendar queue of future eligible times + deadline heap of matured.

    Requests whose eligible time has not yet arrived sit in the calendar;
    a query at time ``now`` first matures everything due, then answers
    from the deadline heap.  Since simulation time only advances, matured
    requests never need to move back.
    """

    def __init__(self, bucket_width: float = 0.001) -> None:
        self._future: CalendarQueue[ItemT] = CalendarQueue(bucket_width)
        self._ready: IndexedHeap[ItemT] = IndexedHeap()
        # item -> (eligible, deadline); single source of truth for update.
        self._requests: dict = {}

    def __len__(self) -> int:
        return len(self._requests)

    def __bool__(self) -> bool:
        return bool(self._requests)

    def __contains__(self, item: ItemT) -> bool:
        return item in self._requests

    def insert(self, item: ItemT, eligible: float, deadline: float) -> None:
        if item in self._requests:
            raise ValueError(f"item already present: {item!r}")
        self._requests[item] = (eligible, deadline)
        self._future.insert(item, eligible)

    def remove(self, item: ItemT) -> None:
        del self._requests[item]
        if item in self._future:
            self._future.remove(item)
        else:
            self._ready.remove(item)

    def update(self, item: ItemT, eligible: float, deadline: float) -> None:
        self.remove(item)
        self.insert(item, eligible, deadline)

    def min_eligible(self) -> Optional[float]:
        if self._ready:
            # Matured requests are eligible "now"; report the smallest
            # recorded eligible time, as the augmented tree would.
            return min(self._requests[item][0] for item in self._ready)
        return self._future.min_time()

    def min_deadline_eligible(
        self, now: float
    ) -> Optional[Tuple[ItemT, float, float]]:
        for item, _time in self._future.pop_due(now):
            self._ready.push(item, self._requests[item][1])
        if not self._ready:
            return None
        item, deadline = self._ready.peek()
        eligible = self._requests[item][0]
        return item, eligible, deadline


"""Bounded request queues used by the memory controller.

The paper's configuration (Table 1) uses 64-entry read and write request
queues.  :class:`RequestQueue` is a small bounded container that preserves
arrival order (needed for the "first-come" part of FR-FCFS) and keeps the
per-bank organisation the scheduler works on: on every push and remove it
updates each bank's arrival-ordered request list (:attr:`RequestQueue.
by_bank`), stamps pushed requests with a push sequence number
(``MemoryRequest.queue_seq``), and records the touched bank in
:attr:`RequestQueue.changed_banks` so the scheduler recomputes only that
bank's decision.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set

from repro.controller.request import MemoryRequest


class RequestQueue:
    """A bounded, arrival-ordered queue of memory requests."""

    def __init__(self, capacity: int = 64, name: str = "queue") -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: List[MemoryRequest] = []
        # Per-bank index: bank key -> that bank's requests in push order.
        # Requests without a decoded coordinate are not indexed (the
        # controller decodes every request before pushing it).
        self.by_bank: Dict[tuple, List[MemoryRequest]] = {}
        # Bank keys whose request lists changed since the scheduler last
        # synced; the scheduler also adds the banks issued commands
        # touched, and drains the set.
        self.changed_banks: Set[tuple] = set()
        self._push_seq = 0
        self.enqueued_total = 0
        self.rejected_total = 0
        self.peak_occupancy = 0
        # Mutation version: bumped on every successful push and every
        # remove.  The controller's failed-scan memo compares it to prove
        # the queue — and hence the scheduler's candidate sequence — is
        # unchanged.
        self.version = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def occupancy(self) -> float:
        return len(self._entries) / self.capacity

    # ------------------------------------------------------------------ #
    def push(self, request: MemoryRequest) -> bool:
        """Append ``request`` if there is room; return ``False`` otherwise."""

        if self.is_full:
            self.rejected_total += 1
            return False
        self._entries.append(request)
        self._push_seq += 1
        request.queue_seq = self._push_seq
        coord = request.coordinate
        if coord is not None:
            key = coord.bank_key
            bucket = self.by_bank.get(key)
            if bucket is None:
                self.by_bank[key] = [request]
            else:
                bucket.append(request)
            self.changed_banks.add(key)
        self.enqueued_total += 1
        self.version += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return True

    def remove(self, request: MemoryRequest) -> None:
        """Remove a specific request (after it has been scheduled)."""

        self._entries.remove(request)
        coord = request.coordinate
        if coord is not None:
            key = coord.bank_key
            bucket = self.by_bank[key]
            bucket.remove(request)
            if not bucket:
                del self.by_bank[key]
            self.changed_banks.add(key)
        self.version += 1

    def oldest(self) -> Optional[MemoryRequest]:
        """Return the oldest request without removing it."""

        return self._entries[0] if self._entries else None

    # ------------------------------------------------------------------ #
    def matching(self, predicate: Callable[[MemoryRequest], bool]
                 ) -> List[MemoryRequest]:
        """Return all queued requests satisfying ``predicate`` in arrival order."""

        return [req for req in self._entries if predicate(req)]

    def first_matching(self, predicate: Callable[[MemoryRequest], bool]
                       ) -> Optional[MemoryRequest]:
        for req in self._entries:
            if predicate(req):
                return req
        return None

    def for_bank(self, bank_key: tuple) -> List[MemoryRequest]:
        """All requests whose decoded coordinate targets ``bank_key``."""

        return list(self.by_bank.get(bank_key, ()))

    def threads_present(self) -> Iterable[int]:
        """Distinct thread ids currently waiting in the queue."""

        return {
            req.thread_id for req in self._entries if req.thread_id is not None
        }

    def count_for_thread(self, thread_id: int) -> int:
        return sum(1 for req in self._entries if req.thread_id == thread_id)

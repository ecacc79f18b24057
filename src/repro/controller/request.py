"""Memory request representation.

A :class:`MemoryRequest` is the unit of work the cache hierarchy hands to the
memory controller: one cacheline read or write, tagged with the hardware
thread that caused it.  The thread tag is what allows mitigation mechanisms
and BreakHammer to attribute row activations to threads.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dram.address import DramAddress

_request_ids = itertools.count()


class RequestType(enum.Enum):
    """The kind of memory request."""

    READ = "read"
    WRITE = "write"


# Assigned once as plain member attributes (not properties): the controller
# reads the flag on every queue/serve/complete step of every request.
RequestType.READ.is_write = False
RequestType.WRITE.is_write = True


@dataclass(eq=False, slots=True)
class MemoryRequest:
    """One cacheline-granularity memory request.

    Identity equality (``eq=False``): a request is a unique in-flight unit
    of work, and queue removal must match this object, not any request that
    happens to carry equal field values — which field-wise comparison also
    made a hot-path cost in ``RequestQueue.remove``.

    Attributes
    ----------
    address:
        Byte address of the cacheline.
    kind:
        Read or write.
    thread_id:
        Hardware thread that generated the request (``None`` for requests
        that cannot be attributed, e.g. writebacks of shared lines).
    arrival_cycle:
        Cycle at which the request entered the memory controller.
    coordinate:
        Decoded DRAM coordinate, filled in by the controller on arrival.
    completion_cycle:
        Cycle at which the data burst finished (set on completion).
    on_complete:
        Optional callback invoked when the request completes; the cache
        hierarchy uses it to release MSHRs and wake up cores.
    queue_seq:
        Push sequence number within its controller queue (set by
        :meth:`repro.controller.queues.RequestQueue.push`); orders the
        FR-FCFS+Cap decisions of different banks.
    """

    address: int
    kind: RequestType
    thread_id: Optional[int] = None
    arrival_cycle: int = 0
    coordinate: Optional[DramAddress] = None
    completion_cycle: Optional[int] = None
    first_command_cycle: Optional[int] = None
    on_complete: Optional[Callable[["MemoryRequest", int], None]] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    metadata: dict = field(default_factory=dict)
    queue_seq: int = 0

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def latency(self) -> Optional[int]:
        """Total queueing + service latency in controller cycles."""

        if self.completion_cycle is None:
            return None
        return self.completion_cycle - self.arrival_cycle

    def complete(self, cycle: int) -> None:
        """Mark the request complete and fire its callback."""

        self.completion_cycle = cycle
        if self.on_complete is not None:
            self.on_complete(self, cycle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRequest(#{self.request_id} {self.kind.value} "
            f"addr=0x{self.address:x} thread={self.thread_id})"
        )


def read_request(address: int, thread_id: Optional[int] = None,
                 arrival_cycle: int = 0) -> MemoryRequest:
    """Convenience constructor for a read request."""

    return MemoryRequest(address=address, kind=RequestType.READ,
                         thread_id=thread_id, arrival_cycle=arrival_cycle)


def write_request(address: int, thread_id: Optional[int] = None,
                  arrival_cycle: int = 0) -> MemoryRequest:
    """Convenience constructor for a write request."""

    return MemoryRequest(address=address, kind=RequestType.WRITE,
                         thread_id=thread_id, arrival_cycle=arrival_cycle)

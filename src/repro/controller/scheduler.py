"""Memory request scheduling policies over a per-bank request index.

The paper's controller uses FR-FCFS with a *cap on column-over-row
reordering* (FR-FCFS+Cap, Mutlu & Moscibroda MICRO'07) of four: row-buffer
hits may be served ahead of older row-buffer misses, but at most ``cap``
times in a row per bank, which bounds the starvation a row-hit-friendly
(e.g. streaming or hammering) thread can inflict on others.  Plain FR-FCFS
and strict FCFS are provided for ablation studies and tests.

Every policy works on the per-bank organisation of the request buffer that
Ramulator 2.0 (Luo et al., IEEE CAL 2023) uses.  The controller tries at
most one command per bank in a cycle (a bank that refused one command
refuses the others, and a served request ends the cycle), so a policy is
fully described by **one decision per bank** and the order of those
decisions:

* ``frfcfs_cap`` — the bank's first row hit in queue order, unless the
  bank's cap is exhausted and an older miss waits ahead of it; otherwise
  the bank's oldest miss.  Hits come before misses, each group in queue
  (push) order.
* ``frfcfs`` — the bank's oldest hit, else its oldest miss; hits before
  misses, each by (arrival cycle, request id).
* ``fcfs`` — the bank's oldest request, by (arrival cycle, request id).

:meth:`BaseScheduler.decisions` keeps the ordered decisions of a
:class:`~repro.controller.queues.RequestQueue` incrementally.  A bank's
decision is recomputed only when one of its inputs changed: a push or
remove on that bank (recorded by the queue in ``changed_banks``), or a
command issued to the bank or a REF/PREA to its rank (reported by the
controller through :meth:`BaseScheduler.note_command`).  A bank's cap
counter changes only when one of its requests is served, right after the
RD/WR that served it, so the command already covers it.  A command the
scheduler was not told about (detected through the channel's issue serial)
invalidates every decision, so the cache can only cost time, never change
a result.

Each decision also names the command its request needs next (RD/WR for a
hit, PRE to close a conflicting row, ACT for a closed bank), which lets the
controller reject timing-blocked attempts from that command's floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest
from repro.dram.commands import CommandType
from repro.dram.device import Channel

#: Order offset placing every FR-FCFS+Cap miss decision after every hit.
_MISS_PHASE = 1 << 62

_ORDER = attrgetter("order")


def _age(request: MemoryRequest) -> Tuple[int, int]:
    return (request.arrival_cycle, request.request_id)


@dataclass(slots=True, eq=False)
class SchedulerDecision:
    """The request chosen for one bank, with the reason recorded.

    ``command``, ``target`` and ``order`` are filled in by
    :meth:`BaseScheduler.decisions`; hand-built decisions (tests) may
    leave them unset.
    """

    request: MemoryRequest
    is_row_hit: bool
    reason: str
    #: The command the request needs next: RD/WR, PRE or ACT.
    command: Optional[CommandType] = None
    #: ``(command, rank, bank_group, bank)`` — the stalled-command tuple
    #: the controller records when the command is not timing-ready.
    target: Optional[tuple] = None
    #: Sort key among the decisions of one queue (smaller goes first).
    order: object = 0


class _QueueView:
    """The scheduler's cached decisions for one request queue."""

    __slots__ = ("decided", "ordered")

    def __init__(self) -> None:
        self.decided: Dict[tuple, SchedulerDecision] = {}
        self.ordered: List[SchedulerDecision] = []


class BaseScheduler:
    """Interface shared by all scheduling policies.

    A policy implements :meth:`_pick` (which request of one bank's
    arrival-ordered list goes next) and :meth:`_order` (how decisions of
    different banks are ranked); the per-bank cache and its invalidation
    are shared.
    """

    name = "base"

    def __init__(self) -> None:
        self._views: Dict[RequestQueue, _QueueView] = {}
        self._channel: Optional[Channel] = None
        # Issue serial the cached decisions account for: note_command()
        # advances it once per command it was told about.
        self._serial = 0
        # Bank objects are immortal per channel; (rank, group, bank) ->
        # the bank keys seen for it, for note_command().
        self._banks: Dict[tuple, object] = {}
        self._keys_at: Dict[tuple, List[tuple]] = {}

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #
    def _pick(self, requests: List[MemoryRequest], open_row: Optional[int],
              key: tuple) -> Tuple[MemoryRequest, bool]:
        """``(request, is_row_hit)`` for one bank's arrival-ordered list."""

        raise NotImplementedError

    def _order(self, request: MemoryRequest, is_row_hit: bool,
               seq: int) -> object:
        """Sort key of a decision; ``seq`` is the request's queue position."""

        raise NotImplementedError

    def _reason(self, is_row_hit: bool) -> str:
        return "row-hit" if is_row_hit else "oldest-miss"

    def notify_served(self, decision: SchedulerDecision) -> None:
        """Hook invoked when the chosen request's column command issues.

        Always follows the :meth:`note_command` of that RD/WR, which marks
        the served bank for recomputation, so state a policy updates here
        for that bank needs no invalidation of its own.
        """

    # ------------------------------------------------------------------ #
    # Incremental per-bank decisions
    # ------------------------------------------------------------------ #
    def decisions(self, queue: RequestQueue,
                  channel: Channel) -> List[SchedulerDecision]:
        """``queue``'s per-bank decisions in priority order.

        The returned list is owned by the scheduler and stays valid until
        the next call; only banks whose inputs changed are recomputed.
        """

        view = self._views.get(queue)
        if view is None or channel is not self._channel \
                or channel.issue_serial != self._serial:
            view = self._resync(queue, channel)
        changed = queue.changed_banks
        if changed:
            decided = view.decided
            by_bank = queue.by_bank
            for key in changed:
                requests = by_bank.get(key)
                if requests:
                    decided[key] = self._decide(requests, key)
                else:
                    decided.pop(key, None)
            changed.clear()
            view.ordered = sorted(decided.values(), key=_ORDER)
        return view.ordered

    def _resync(self, queue: RequestQueue, channel: Channel) -> _QueueView:
        """Drop every cached decision (unseen commands or a new channel)."""

        if channel is not self._channel:
            self._channel = channel
            self._banks = {}
            self._keys_at = {}
        self._serial = channel.issue_serial
        for known, view in self._views.items():
            view.decided.clear()
            known.changed_banks.update(known.by_bank)
        view = self._views.get(queue)
        if view is None:
            view = self._views[queue] = _QueueView()
            queue.changed_banks.update(queue.by_bank)
        return view

    def _decide(self, requests: List[MemoryRequest],
                key: tuple) -> SchedulerDecision:
        bank = self._banks.get(key)
        if bank is None:
            bank = self._channel.ranks[key[1]].banks[key[2]][key[3]]
            self._banks[key] = bank
            self._keys_at.setdefault(key[1:], []).append(key)
        open_row = bank.open_row if bank.is_open() else None
        request, hit = self._pick(requests, open_row, key)
        coord = request.coordinate
        if hit:
            command = CommandType.WR if request.kind.is_write \
                else CommandType.RD
        elif open_row is not None:
            command = CommandType.PRE
        else:
            command = CommandType.ACT
        return SchedulerDecision(
            request, hit, self._reason(hit), command,
            (command, coord.rank, coord.bank_group, coord.bank),
            self._order(request, hit, request.queue_seq),
        )

    def note_command(self, kind: CommandType, rank: int, bank_group: int,
                     bank: int) -> None:
        """Invalidate the decisions an issued command may have changed.

        The controller reports every command it issues.  A command to a
        bank moves its open row and timing floors; REF and PREA act on
        every bank of the rank.
        """

        self._serial += 1
        if not self._views:
            return
        if kind is CommandType.REF or kind is CommandType.PREA:
            for queue, view in self._views.items():
                queue.changed_banks.update(
                    key for key in view.decided if key[1] == rank
                )
            return
        keys = self._keys_at.get((rank, bank_group, bank))
        if keys:
            for queue in self._views:
                queue.changed_banks.update(keys)


class FcfsScheduler(BaseScheduler):
    """Strict first-come-first-served scheduling (oldest request wins)."""

    name = "fcfs"

    def _pick(self, requests, open_row, key):
        request = min(requests, key=_age)
        return request, open_row is not None \
            and request.coordinate.row == open_row

    def _order(self, request, is_row_hit, seq):
        return _age(request)

    def _reason(self, is_row_hit: bool) -> str:
        return "fcfs-oldest"


class FrFcfsScheduler(BaseScheduler):
    """First-ready FCFS: row-buffer hits first, then the oldest request."""

    name = "frfcfs"

    def _pick(self, requests, open_row, key):
        if open_row is not None:
            hits = [r for r in requests if r.coordinate.row == open_row]
            if hits:
                return min(hits, key=_age), True
        return min(requests, key=_age), False

    def _order(self, request, is_row_hit, seq):
        return (not is_row_hit, request.arrival_cycle, request.request_id)


class FrFcfsCapScheduler(BaseScheduler):
    """FR-FCFS with a per-bank cap on column-over-row reordering.

    A row-buffer hit may bypass an older row-buffer miss to the same bank at
    most ``cap`` consecutive times; after that the oldest miss is scheduled
    even though it needs a PRE+ACT.  This is the policy used throughout the
    paper's evaluation (Cap = 4).
    """

    name = "frfcfs_cap"

    def __init__(self, cap: int = 4) -> None:
        if cap < 1:
            raise ValueError("cap must be at least 1")
        super().__init__()
        self.cap = cap
        self._hits_over_misses: Dict[tuple, int] = {}

    def _pick(self, requests, open_row, key):
        first = requests[0]
        if open_row is None:
            return first, False
        if first.coordinate.row == open_row:
            return first, True
        # The oldest request is a miss: a younger hit may bypass it only
        # while the bank's reorder budget lasts.
        if self._hits_over_misses.get(key, 0) < self.cap:
            for request in requests:
                if request.coordinate.row == open_row:
                    return request, True
        return first, False

    def _order(self, request, is_row_hit, seq):
        return seq if is_row_hit else seq + _MISS_PHASE

    def notify_served(self, decision: SchedulerDecision) -> None:
        coord = decision.request.coordinate
        if coord is None:
            return
        key = coord.bank_key
        if decision.is_row_hit:
            self._hits_over_misses[key] = self._hits_over_misses.get(key, 0) + 1
        else:
            # A miss was served: the bank's reorder budget resets.
            self._hits_over_misses[key] = 0


def make_scheduler(name: str, cap: int = 4) -> BaseScheduler:
    """Factory used by :class:`repro.sim.config.SystemConfig`."""

    normalized = name.lower()
    if normalized in ("frfcfs_cap", "frfcfs+cap", "fr-fcfs+cap"):
        return FrFcfsCapScheduler(cap=cap)
    if normalized in ("frfcfs", "fr-fcfs"):
        return FrFcfsScheduler()
    if normalized == "fcfs":
        return FcfsScheduler()
    raise ValueError(f"unknown scheduler policy: {name!r}")

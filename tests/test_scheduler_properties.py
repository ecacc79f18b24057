"""Per-bank scheduling decisions against a brute-force reference.

The scheduler keeps one decision per bank and recomputes only the banks
whose inputs changed.  These tests pin that form, for every policy, to a
test-local reference that ranks *every* candidate the slow way and then
keeps the first decision per bank (the controller never tries a second
command for a bank in one cycle).  The incremental path is replayed
through random pushes, removes, row commands, refreshes and served
requests (which move the cap counters), and compared with the reference
after each step.

A controller-level test pins where the 16-attempt budget truncates the
scan when more stalled banks sit ahead of a ready one.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.controller import MemoryController
from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestType, read_request
from repro.controller.scheduler import SchedulerDecision, make_scheduler
from repro.dram.address import DramAddress
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig
from repro.dram.device import Channel

POLICIES = ("frfcfs_cap", "frfcfs", "fcfs")
CAP = 4
CONFIG = DeviceConfig.tiny(ranks=2)
BANKS = [(rank, group, bank)
         for rank in range(CONFIG.ranks)
         for group in range(CONFIG.bank_groups)
         for bank in range(CONFIG.banks_per_group)]
ROWS = 3
#: Cycles between test-issued commands: clears every timing constraint.
GAP = 10_000


# ---------------------------------------------------------------------- #
# Brute-force reference
# ---------------------------------------------------------------------- #
def _open_row(channel, request):
    coord = request.coordinate
    bank = channel.bank(coord.rank, coord.bank_group, coord.bank)
    return bank.open_row if bank.is_open() else None


def _is_hit(channel, request):
    return _open_row(channel, request) == request.coordinate.row


def _age(request):
    return (request.arrival_cycle, request.request_id)


def reference(policy, candidates, channel, caps):
    """Rank every candidate, then keep the first decision per bank."""

    if policy == "fcfs":
        ranked = [(r, _is_hit(channel, r))
                  for r in sorted(candidates, key=_age)]
    elif policy == "frfcfs":
        hits = sorted((r for r in candidates if _is_hit(channel, r)),
                      key=_age)
        misses = sorted((r for r in candidates if not _is_hit(channel, r)),
                        key=_age)
        ranked = [(r, True) for r in hits] + [(r, False) for r in misses]
    else:
        # FR-FCFS+Cap in queue order: a hit behind an older miss to its
        # bank is deferred once the bank's cap is spent.
        eligible, misses, deferred = [], [], []
        seen_miss = set()
        for r in candidates:
            key = r.coordinate.bank_key
            if not _is_hit(channel, r):
                misses.append((r, False))
                seen_miss.add(key)
            elif key in seen_miss and caps.get(key, 0) >= CAP:
                deferred.append((r, True))
            else:
                eligible.append((r, True))
        ranked = eligible + misses + deferred
    first, seen = [], set()
    for request, hit in ranked:
        key = request.coordinate.bank_key
        if key not in seen:
            seen.add(key)
            first.append((request, hit))
    return first


def observed(decisions, channel):
    out = []
    for d in decisions:
        coord = d.request.coordinate
        bank = channel.bank(coord.rank, coord.bank_group, coord.bank)
        # The named command must match the bank's live state.
        if d.is_row_hit:
            assert d.command in (CommandType.RD, CommandType.WR)
        elif bank.is_open():
            assert d.command is CommandType.PRE
        else:
            assert d.command is CommandType.ACT
        assert d.target == (d.command, coord.rank, coord.bank_group,
                            coord.bank)
        out.append((d.request, d.is_row_hit))
    return out


def same(expected, actual):
    return [(id(r), h) for r, h in expected] == [(id(r), h) for r, h in actual]


# ---------------------------------------------------------------------- #
# Random inputs
# ---------------------------------------------------------------------- #
request_spec = st.tuples(st.integers(0, len(BANKS) - 1),
                         st.integers(0, ROWS - 1),
                         st.integers(0, 40))


_serial = itertools.count(1)


def make_request(spec):
    bank_index, row, arrival = spec
    rank, group, bank = BANKS[bank_index]
    n = next(_serial)
    request = MemoryRequest(address=n * 64, kind=RequestType.READ,
                            arrival_cycle=arrival)
    request.coordinate = DramAddress(0, rank, group, bank, row,
                                     n % CONFIG.columns_per_row)
    return request


def issue(channel, scheduler, command, cycle):
    """Issue ``command`` and report it, as the controller's ``_issue`` does."""

    channel.issue(command, cycle)
    scheduler.note_command(command.kind, command.rank, command.bank_group,
                           command.bank)


def serve(channel, scheduler, queue, request, is_row_hit, cycle):
    """Serve ``request`` with an RD, then report it to the cap counters.

    Opens the request's row first when needed.  Mirrors the controller:
    the RD is reported before ``notify_served``.  Returns the last cycle.
    """

    coord = request.coordinate
    where = dict(rank=coord.rank, bank_group=coord.bank_group,
                 bank=coord.bank)
    bank = channel.bank(coord.rank, coord.bank_group, coord.bank)
    if bank.is_open() and bank.open_row != coord.row:
        cycle += GAP
        issue(channel, scheduler, Command(CommandType.PRE, **where), cycle)
    if not bank.is_open():
        cycle += GAP
        issue(channel, scheduler,
              Command(CommandType.ACT, row=coord.row, **where), cycle)
    cycle += GAP
    issue(channel, scheduler, Command(CommandType.RD, row=coord.row,
                                      column=coord.column, **where), cycle)
    queue.remove(request)
    scheduler.notify_served(SchedulerDecision(request, is_row_hit, "test"))
    return cycle


def open_banks(channel, open_rows, cycle):
    for (rank, group, bank), row in zip(BANKS, open_rows):
        if row is not None:
            cycle += GAP
            channel.issue(Command(CommandType.ACT, rank=rank,
                                  bank_group=group, bank=bank, row=row),
                          cycle)
    return cycle


operation = st.one_of(
    st.tuples(st.just("push"), request_spec),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("row"), st.integers(0, len(BANKS) - 1),
              st.integers(0, ROWS - 1)),
    st.tuples(st.just("served"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("refresh"), st.integers(0, CONFIG.ranks - 1)),
)


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(POLICIES),
       specs=st.lists(request_spec, min_size=1, max_size=64),
       open_rows=st.lists(st.one_of(st.none(), st.integers(0, ROWS - 1)),
                          min_size=len(BANKS), max_size=len(BANKS)),
       caps=st.lists(st.integers(0, CAP), min_size=len(BANKS),
                     max_size=len(BANKS)),
       operations=st.lists(operation, max_size=12))
def test_per_bank_decisions_match_reference(policy, specs, open_rows, caps,
                                            operations):
    channel = Channel(CONFIG)
    cycle = open_banks(channel, open_rows, 0)
    scheduler = make_scheduler(policy, cap=CAP)
    counters = getattr(scheduler, "_hits_over_misses", {})
    for (rank, group, bank), count in zip(BANKS, caps):
        counters[(0, rank, group, bank)] = count
    queue = RequestQueue(capacity=64)
    for spec in specs:
        queue.push(make_request(spec))

    def check():
        candidates = list(queue)
        expected = reference(policy, candidates, channel, counters)
        assert same(expected, observed(scheduler.decisions(queue, channel),
                                       channel))

    check()
    for op in operations:
        kind = op[0]
        if kind == "push" and not queue.is_full:
            queue.push(make_request(op[1]))
        elif kind == "remove" and queue:
            queue.remove(list(queue)[op[1] % len(queue)])
        elif kind == "row":
            rank, group, bank = BANKS[op[1]]
            target = channel.bank(rank, group, bank)
            cycle += GAP
            if target.is_open():
                command = Command(CommandType.PRE, rank=rank,
                                  bank_group=group, bank=bank)
            else:
                command = Command(CommandType.ACT, rank=rank,
                                  bank_group=group, bank=bank, row=op[2])
            issue(channel, scheduler, command, cycle)
        elif kind == "served" and queue:
            request = list(queue)[op[1] % len(queue)]
            cycle = serve(channel, scheduler, queue, request, op[2], cycle)
        elif kind == "refresh":
            rank = op[1]
            for group in range(CONFIG.bank_groups):
                for bank in range(CONFIG.banks_per_group):
                    if channel.bank(rank, group, bank).is_open():
                        cycle += GAP
                        issue(channel, scheduler,
                              Command(CommandType.PRE, rank=rank,
                                      bank_group=group, bank=bank), cycle)
            cycle += GAP
            issue(channel, scheduler, Command(CommandType.REF, rank=rank),
                  cycle)
        check()


def test_cap_exhaustion_hands_the_bank_to_the_older_miss():
    channel = Channel(CONFIG)
    open_banks(channel, [2] + [None] * (len(BANKS) - 1), 0)
    scheduler = make_scheduler("frfcfs_cap", cap=2)
    queue = RequestQueue()
    miss = make_request((0, 1, 0))
    hits = [make_request((0, 2, 1)) for _ in range(3)]
    for request in [miss] + hits:
        queue.push(request)
    cycle = GAP
    for served in hits[:2]:
        [decision] = scheduler.decisions(queue, channel)
        assert decision.request is served and decision.is_row_hit
        cycle = serve(channel, scheduler, queue, served, True, cycle)
    # The second bypass spent the cap: the bank goes to the older miss.
    [decision] = scheduler.decisions(queue, channel)
    assert decision.request is miss and decision.command is CommandType.PRE
    # Serving the miss resets the budget; the last request now conflicts.
    serve(channel, scheduler, queue, miss, False, cycle)
    assert scheduler._hits_over_misses[miss.coordinate.bank_key] == 0
    [decision] = scheduler.decisions(queue, channel)
    assert decision.request is hits[2] and decision.command is CommandType.PRE


def test_unreported_command_invalidates_every_decision():
    channel = Channel(CONFIG)
    scheduler = make_scheduler("frfcfs_cap")
    queue = RequestQueue()
    request = make_request((0, 1, 0))
    queue.push(request)
    [before] = scheduler.decisions(queue, channel)
    assert before.command is CommandType.ACT
    # Issued behind the scheduler's back (no note_command): the issue
    # serial no longer matches, so the cached decision is dropped.
    channel.issue(Command(CommandType.ACT, rank=0, bank_group=0, bank=0,
                          row=1), GAP)
    [after] = scheduler.decisions(queue, channel)
    assert after.is_row_hit and after.command is CommandType.RD


# ---------------------------------------------------------------------- #
# Controller: the attempt budget
# ---------------------------------------------------------------------- #
def budget_controller(stalled_hits: int):
    """``stalled_hits`` row hits blocked on the data bus, then one PRE.

    Every hit outranks the conflicting miss, whose PRE is timing-ready.
    Returns the controller and the cycle at which to tick it.
    """

    controller = MemoryController(DeviceConfig.ddr5_4800())
    channel = controller.channel
    mapper = controller.mapper
    banks = [(rank, group, bank)
             for rank in range(controller.config.ranks)
             for group in range(controller.config.bank_groups)
             for bank in range(controller.config.banks_per_group)]
    assert len(banks) > stalled_hits
    cycle = 0
    for rank, group, bank in banks[:stalled_hits + 1]:
        cycle += 200
        channel.issue(Command(CommandType.ACT, rank=rank, bank_group=group,
                              bank=bank, row=1), cycle)
    # A column command occupies the data bus past the tick below.
    cycle += 200
    rank, group, bank = banks[0]
    channel.issue(Command(CommandType.RD, rank=rank, bank_group=group,
                          bank=bank, row=1, column=0), cycle)
    controller.cycle = cycle
    for rank, group, bank in banks[:stalled_hits]:
        assert controller.enqueue(read_request(
            mapper.address_for_row(0, rank, group, bank, 1, column=1)))
    rank, group, bank = banks[stalled_hits]
    assert controller.enqueue(read_request(
        mapper.address_for_row(0, rank, group, bank, 7, column=0)))
    assert channel.data_bus_free_at > cycle + 1
    return controller, cycle + 1


@pytest.mark.parametrize("stalled_hits", [16, 20])
def test_attempt_budget_truncates_after_sixteen_stalled_banks(stalled_hits):
    budget = MemoryController.MAX_SCHEDULE_ATTEMPTS
    assert budget == 16
    controller, cycle = budget_controller(stalled_hits=stalled_hits)
    controller.tick(cycle)
    # Sixteen RD attempts stalled on the bus; the ready PRE behind them
    # is never tried this cycle.
    assert controller.stats.precharges == 0
    assert [t[0] for t in controller._stalled_commands] == \
        [CommandType.RD] * budget
    # The truncated scan is not memoised as a full failure.
    assert controller._scan_memo is None


def test_ready_bank_within_budget_issues():
    budget = MemoryController.MAX_SCHEDULE_ATTEMPTS
    controller, cycle = budget_controller(stalled_hits=budget - 1)
    controller.tick(cycle)
    assert controller.stats.precharges == 1
    assert controller.stats.row_conflicts == 1
    assert [t[0] for t in controller._stalled_commands] == \
        [CommandType.RD] * (budget - 1)

"""The memory controller.

One :class:`MemoryController` instance drives one DRAM channel.  Per cycle it
issues at most one DRAM command, chosen with the following priority order
(highest first):

1. an overdue periodic refresh that can no longer be postponed,
2. pending RowHammer-preventive maintenance demanded by the attached
   mitigation mechanism (victim refreshes, RFM windows, row migrations),
3. a command on behalf of a queued read (or write, during write drain),
   selected by the FR-FCFS+Cap scheduler,
4. a periodic refresh that is pending, when no request command issued.

Requests are scheduled over a per-bank index rather than by re-walking
the queue.  The request queues keep each bank's requests in arrival order,
and the scheduler keeps **one decision per bank** (the request to serve
next and the command it needs: RD/WR, PRE or ACT).  It recomputes a bank's
decision only when a push, a remove or a command to the bank or its rank
touched it (a cap counter moves only when a request is served, right after
its RD/WR); every command goes through
:meth:`MemoryController._issue`, which reports it to the scheduler.  Each
cycle the controller tries the decisions in priority order, at most
``MAX_SCHEDULE_ATTEMPTS`` of them.  An attempt whose command cannot be
timing-ready fails from floors, without building a command.  The floors
are the bank's floor combined with its rank's REF block, the data-bus floor
shared by every RD/WR, and the rank's ACT spacing, all taken from
:class:`~repro.dram.device.Rank` and :class:`~repro.dram.device.Channel`,
which stay the single source of the timing rules.  An ACT passes the
refresh-urgency gate and then the mitigation's activation gate before its
timing is checked.

Every issued ACT and every completed preventive action is reported to the
registered observers; BreakHammer registers itself as such an observer.

For the fast-forward engine the controller reports, after each tick,
whether the tick did anything observable and — when it did not — the
earliest future cycle it possibly can (:meth:`MemoryController.
next_event_cycle`), derived from the timing bounds of the commands it
tried but failed to issue, in-flight completion times, refresh deadlines,
and the mitigation mechanism's own clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestType
from repro.controller.scheduler import BaseScheduler, FrFcfsCapScheduler
from repro.dram.address import AddressMapper, DramAddress, MappingScheme
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig
from repro.dram.device import Channel
from repro.dram.energy import EnergyModel
from repro.dram.refresh import RefreshManager
from repro.mitigations.base import (
    ActionObserver,
    MitigationMechanism,
    NoMitigation,
    PreventiveAction,
)


@dataclass
class ControllerStats:
    """Aggregate statistics collected by the controller."""

    reads_completed: int = 0
    writes_completed: int = 0
    activations: int = 0
    precharges: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    refreshes: int = 0
    preventive_actions: int = 0
    preventive_commands: int = 0
    blocked_activations: int = 0
    read_latencies: List[int] = field(default_factory=list)
    latency_by_thread: Dict[int, List[int]] = field(default_factory=dict)
    activations_by_thread: Dict[int, int] = field(default_factory=dict)

    def record_read_latency(self, thread_id: Optional[int], latency: int) -> None:
        self.read_latencies.append(latency)
        if thread_id is not None:
            self.latency_by_thread.setdefault(thread_id, []).append(latency)

    def record_activation(self, thread_id: Optional[int]) -> None:
        self.activations += 1
        if thread_id is not None:
            self.activations_by_thread[thread_id] = (
                self.activations_by_thread.get(thread_id, 0) + 1
            )


class MemoryController:
    """Cycle-driven memory controller for one DRAM channel."""

    def __init__(
        self,
        config: DeviceConfig,
        mitigation: Optional[MitigationMechanism] = None,
        scheduler: Optional[BaseScheduler] = None,
        mapper: Optional[AddressMapper] = None,
        channel_index: int = 0,
        read_queue_size: int = 64,
        write_queue_size: int = 64,
        write_drain_high: float = 0.75,
        write_drain_low: float = 0.25,
    ) -> None:
        self.config = config
        self.channel_index = channel_index
        self.channel = Channel(config, channel_index)
        self.timing = config.timing_cycles()
        self.mitigation = mitigation or NoMitigation(config)
        self.scheduler = scheduler or FrFcfsCapScheduler(cap=4)
        self.mapper = mapper or AddressMapper(config, MappingScheme.MOP)
        self.refresh_manager = RefreshManager(config, channel=channel_index)
        self.energy = EnergyModel(config)

        self.read_queue = RequestQueue(read_queue_size, name="read")
        self.write_queue = RequestQueue(write_queue_size, name="write")
        self._write_drain = False
        self._write_drain_high = write_drain_high
        self._write_drain_low = write_drain_low

        # Preventive work waiting to be issued, in FIFO order.
        self._pending_actions: List[PreventiveAction] = []
        # Requests whose column command has issued; completed when due.
        self._in_flight: List[Tuple[int, MemoryRequest]] = []
        # Earliest completion cycle in _in_flight (sentinel when empty).
        self._next_done = self._NO_TIMING_BOUND

        self.observers: List[ActionObserver] = []
        self.stats = ControllerStats()
        self.cycle = 0
        self._next_refresh_window = self.timing.refresh_window

        # Fast-forward bookkeeping, refreshed by every tick(): whether the
        # tick had any observable effect, and the (kind, rank, bank_group,
        # bank) coordinates of the commands it tried but failed to issue.
        # next_event_cycle() turns the latter into timing bounds lazily, so
        # busy ticks pay nothing for the bookkeeping.
        self._progress = True
        self._stalled_commands: List[Tuple] = []
        # Ranks whose refresh is urgent this tick (set by
        # _issue_urgent_refresh before the request scan reads it).
        self._urgent_ranks: Tuple[int, ...] = ()

        # Whether the mitigation can veto activations (BlockHammer-style).
        # A gating mechanism makes the request-scan outcome depend on time
        # in ways the failed-scan memo below cannot see, so it is disabled.
        self._gating_mitigation = (
            type(self.mitigation).allow_activation
            is not MitigationMechanism.allow_activation
        )
        # Failed-scan memo: after a request scan in which every tried
        # decision failed, the decision sequence and its failure are fully
        # determined by (channel issue serial, queue versions) until the
        # earliest timing bound of the stalled commands.  Until either
        # changes, the scan can be replayed without walking the queue.
        # ``None`` or ``(key, stalled_tuples, earliest_ready_bound)``.
        self._scan_memo: Optional[Tuple] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def register_observer(self, observer: ActionObserver) -> None:
        """Attach an observer (e.g. BreakHammer) for activation/action events."""

        self.observers.append(observer)

    def enqueue(self, request: MemoryRequest) -> bool:
        """Accept a memory request; returns ``False`` when the queue is full."""

        queue = self.write_queue if request.is_write else self.read_queue
        if queue.is_full:
            return False
        request.arrival_cycle = self.cycle
        request.coordinate = self.mapper.map(request.address)
        queue.push(request)
        return True

    def can_accept(self, kind: RequestType) -> bool:
        queue = self.write_queue if kind.is_write else self.read_queue
        return not queue.is_full

    @property
    def pending_requests(self) -> int:
        return len(self.read_queue) + len(self.write_queue) + len(self._in_flight)

    @property
    def pending_preventive_actions(self) -> int:
        return len(self._pending_actions)

    def tick(self, cycle: int) -> List[MemoryRequest]:
        """Advance one cycle; return the requests that completed this cycle."""

        self.cycle = cycle
        self._progress = False
        self._stalled_commands.clear()
        self.refresh_manager.tick(cycle)
        self._tick_refresh_window(cycle)
        self._collect_mitigation_ticks(cycle)
        completed = self._drain_completed(cycle)
        if completed:
            self._progress = True
        self._update_write_drain()
        self._issue_one_command(cycle)
        return completed

    def next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which this controller can act.

        Only meaningful immediately after :meth:`tick`.  Returns
        ``cycle + 1`` whenever the last tick issued a command, completed a
        request, or mutated any statistic (a blocked activation counts —
        the cycle engine re-attempts and re-counts it every cycle), so the
        fast engine stays cycle-accurate through busy periods.  When the
        last tick was provably idle, the result is the minimum of the
        collected command-timing bounds, in-flight completion times,
        refresh deadlines, and the mitigation mechanism's own deadlines.
        ``None`` means the controller has no future work at all.
        """

        cycle = self.cycle
        if self._progress:
            return cycle + 1
        earliest = self._next_refresh_window
        for kind, rank, bank_group, bank in self._stalled_commands:
            bound = self.channel.kind_earliest_ready_cycle(
                kind, rank, bank_group, bank, cycle
            )
            if bound <= cycle:
                # A nominally-ready command did not issue: a non-timing
                # condition intervened.  Fall back to per-cycle stepping.
                return cycle + 1
            if bound < earliest:
                earliest = bound
        if self._next_done < earliest:
            earliest = self._next_done
        urgent_delay = int(self.REFRESH_PRIORITY_URGENCY * self.timing.trefi)
        for state in self.refresh_manager.states:
            if state.pending:
                # A pending REF changes scheduling priority once it becomes
                # urgent; make sure that crossing is simulated.
                event = state.next_refresh_cycle + urgent_delay
                if event <= cycle:
                    continue
            else:
                event = state.next_refresh_cycle
            if event < earliest:
                earliest = event
        mitigation_event = self.mitigation.next_event_cycle(cycle)
        if mitigation_event is not None and \
                cycle < mitigation_event < earliest:
            earliest = mitigation_event
        if earliest <= cycle:
            return cycle + 1
        return earliest

    # ------------------------------------------------------------------ #
    # Internal: housekeeping
    # ------------------------------------------------------------------ #
    def _tick_refresh_window(self, cycle: int) -> None:
        while cycle >= self._next_refresh_window:
            self.mitigation.on_refresh_window(cycle)
            self._next_refresh_window += self.timing.refresh_window
            self._progress = True

    def _collect_mitigation_ticks(self, cycle: int) -> None:
        for action in self.mitigation.tick(cycle):
            self._pending_actions.append(action)
            self._progress = True

    def _drain_completed(self, cycle: int) -> List[MemoryRequest]:
        if cycle < self._next_done:
            return []
        done: List[MemoryRequest] = []
        remaining: List[Tuple[int, MemoryRequest]] = []
        next_done = self._NO_TIMING_BOUND
        for done_cycle, request in self._in_flight:
            if done_cycle <= cycle:
                request.complete(cycle)
                done.append(request)
                if request.is_write:
                    self.stats.writes_completed += 1
                else:
                    self.stats.reads_completed += 1
                    if request.latency is not None:
                        self.stats.record_read_latency(
                            request.thread_id, request.latency
                        )
            else:
                remaining.append((done_cycle, request))
                if done_cycle < next_done:
                    next_done = done_cycle
        self._in_flight = remaining
        self._next_done = next_done
        return done

    def _update_write_drain(self) -> None:
        occupancy = self.write_queue.occupancy
        if not self._write_drain and occupancy >= self._write_drain_high:
            self._write_drain = True
        elif self._write_drain and occupancy <= self._write_drain_low:
            self._write_drain = False
        # Always drain writes if there is nothing else to do.
        if not self.read_queue and self.write_queue:
            self._write_drain = True

    # ------------------------------------------------------------------ #
    # Internal: command issue
    # ------------------------------------------------------------------ #
    def _issue_one_command(self, cycle: int) -> None:
        if self._issue_urgent_refresh(cycle):
            return
        if self._issue_preventive(cycle):
            return
        if self._issue_request_command(cycle):
            return
        self._issue_opportunistic_refresh(cycle)

    # -- refresh -------------------------------------------------------- #
    #: A pending refresh overdue by more than this fraction of tREFI takes
    #: priority over regular requests (JEDEC allows postponing refreshes,
    #: but they must not starve behind a saturated request stream).
    REFRESH_PRIORITY_URGENCY = 0.5

    def _issue_urgent_refresh(self, cycle: int) -> bool:
        """Issue an overdue REF (or the PRE it waits on), if any.

        Also records the ranks whose refresh is urgent this cycle: new
        activations to them are held back by the request scan, which runs
        later in the same tick when nothing issued here.
        """

        urgent = ()
        for state in self.refresh_manager.states:
            urgency = self.refresh_manager.urgency(state.rank, cycle)
            if urgency < self.REFRESH_PRIORITY_URGENCY:
                continue
            if self._try_refresh_rank(state.rank, cycle):
                return True
            urgent += (state.rank,)
        self._urgent_ranks = urgent
        return False

    def _issue_opportunistic_refresh(self, cycle: int) -> bool:
        command = self.refresh_manager.pending_refresh(cycle)
        if command is None:
            return False
        return self._try_refresh_rank(command.rank, cycle)

    def _try_refresh_rank(self, rank: int, cycle: int) -> bool:
        ref = Command(CommandType.REF, channel=self.channel_index, rank=rank)
        if self.channel.ready(ref, cycle):
            self._issue(ref, cycle)
            self.refresh_manager.refresh_issued(rank, cycle)
            self.stats.refreshes += 1
            self._progress = True
            return True
        # Close an open bank in this rank so the refresh can go out soon.
        any_open = False
        for bank in self.channel.rank(rank).iter_banks():
            if bank.is_open():
                any_open = True
                if self.channel.kind_ready(CommandType.PRE, rank,
                                           bank.bank_group, bank.bank, cycle):
                    pre = Command(
                        CommandType.PRE,
                        channel=self.channel_index,
                        rank=rank,
                        bank_group=bank.bank_group,
                        bank=bank.bank,
                    )
                    self._issue(pre, cycle)
                    self.stats.precharges += 1
                    self._progress = True
                    return True
                self._stalled_commands.append(
                    (CommandType.PRE, rank, bank.bank_group, bank.bank)
                )
        if not any_open:
            self._stalled_commands.append((CommandType.REF, rank, 0, 0))
        return False

    # -- preventive maintenance ------------------------------------------ #
    def _issue_preventive(self, cycle: int) -> bool:
        if not self._pending_actions:
            return False
        action = self._pending_actions[0]
        if not action.commands:
            self._finish_action(action, cycle)
            return False
        command = action.commands[0]
        if self.channel.ready(command, cycle):
            self._issue(command, cycle)
            self.stats.preventive_commands += 1
            self._progress = True
            action.commands.pop(0)
            if not action.commands:
                self._finish_action(action, cycle)
            return True
        # The target bank may hold an open row: close it so the
        # maintenance command can issue.
        bank = self.channel.bank(command.rank, command.bank_group, command.bank)
        if bank.is_open():
            pre = Command(
                CommandType.PRE,
                channel=self.channel_index,
                rank=command.rank,
                bank_group=command.bank_group,
                bank=command.bank,
            )
            if self.channel.ready(pre, cycle):
                self._issue(pre, cycle)
                self.stats.precharges += 1
                self._progress = True
                return True
            self._stalled_commands.append(
                (CommandType.PRE, command.rank, command.bank_group,
                 command.bank)
            )
        else:
            self._stalled_commands.append(
                (command.kind, command.rank, command.bank_group, command.bank)
            )
        return False

    def _finish_action(self, action: PreventiveAction, cycle: int) -> None:
        action.completed_cycle = cycle
        self._pending_actions.remove(action)
        self.stats.preventive_actions += 1
        self._progress = True
        for observer in self.observers:
            observer.on_preventive_action(action, cycle)

    # -- regular requests ------------------------------------------------ #
    def _active_queue(self) -> RequestQueue:
        """The queue the request scan serves this cycle."""

        if self._write_drain:
            return self.write_queue
        if not self.read_queue and self.write_queue:
            return self.write_queue
        return self.read_queue

    #: Number of top-priority per-bank decisions the controller will try
    #: per cycle before giving up; bounds the per-cycle scheduling work
    #: while still preserving bank-level parallelism.
    MAX_SCHEDULE_ATTEMPTS = 16

    #: Sentinel bound for a failed scan that only queue or channel
    #: mutations (never bare time) can unblock.
    _NO_TIMING_BOUND = 1 << 62

    def _scan_key(self) -> Tuple[int, int, int]:
        """Versions that pin the request scan's inputs.

        The decision sequence and every per-decision outcome apart from
        pure timing readiness are functions of the queues' contents, the
        channel state (open rows, timing floors, refresh/cap state — all
        mutated only by command issues), and the write-drain flag (itself
        determined by the queue occupancies).  So (issue serial, read
        version, write version) unchanged ⟹ same decisions, same order,
        same non-timing gates.
        """

        return (self.channel.issue_serial, self.read_queue.version,
                self.write_queue.version)

    def _issue_request_command(self, cycle: int) -> bool:
        memo = self._scan_memo
        if memo is not None:
            if memo[0] == self._scan_key():
                if cycle < memo[2]:
                    # Nothing the scan depends on changed and no tried
                    # command can have become timing-ready: the scan would
                    # fail exactly as before.
                    self._stalled_commands.extend(memo[1])
                    return False
            else:
                self._scan_memo = None

        decisions = self.scheduler.decisions(self._active_queue(),
                                             self.channel)
        if not decisions:
            self._scan_memo = (self._scan_key(), (), self._NO_TIMING_BOUND)
            return False
        # Each decision is tried in priority order against its command's
        # timing floor: the rank's floor for the bank, plus the data-bus
        # floor every RD/WR shares and the rank's ACT spacing.  A
        # command whose floor lies in the future fails without building a
        # Command; the first one that is ready issues.
        ranks = self.channel.ranks
        bus_floor = self.channel.data_bus_free_at
        urgent_ranks = self._urgent_ranks
        gating = self._gating_mitigation
        stalled = self._stalled_commands
        stall_start = len(stalled)
        bound = self._NO_TIMING_BOUND
        budget = self.MAX_SCHEDULE_ATTEMPTS
        if len(decisions) > budget:
            decisions = decisions[:budget]
        act = CommandType.ACT
        for decision in decisions:
            target = decision.target
            kind = target[0]
            floor = ranks[target[1]].floor(kind, target[2], target[3])
            if kind is act:
                # Gate order: refresh urgency (no stall bound), the
                # mitigation's veto (which has side effects), then timing.
                if urgent_ranks and target[1] in urgent_ranks:
                    continue
                if gating and not self._allow_activation(
                        decision.request.coordinate, cycle):
                    continue
                spacing = ranks[target[1]].act_floor(target[2])
                if spacing > floor:
                    floor = spacing
            elif kind.is_column_command and bus_floor > floor:
                floor = bus_floor
            if floor > cycle:
                stalled.append(target)
                if floor < bound:
                    bound = floor
                continue
            self._serve(decision, kind, cycle)
            return True
        if len(decisions) < budget and not gating:
            # Every decision was tried and failed, each stalled one on a
            # floor in the future (``bound`` is the earliest): until that
            # cycle or a change to the scan key, the scan fails the same
            # way.  Decisions that failed the refresh-urgency gate left no
            # stalled command; they stay blocked until a REF issues, which
            # bumps the channel serial.  A gating mitigation makes the
            # outcome time-dependent, so its scans are never memoised.
            self._scan_memo = (self._scan_key(), tuple(stalled[stall_start:]),
                               bound)
        return False

    def _allow_activation(self, coord: DramAddress, cycle: int) -> bool:
        """The mitigation's activation gate (BlockHammer-style delays).

        Not a timing condition, so a veto records no idle bound: the
        mitigation's deadline is tracked as an event of its own.
        """

        if self.mitigation.allow_activation(coord, cycle):
            return True
        # Counted per attempted cycle, so the fast engine must keep
        # stepping cycle by cycle while an activation is being delayed.
        self.stats.blocked_activations += 1
        self._progress = True
        return False

    def _serve(self, decision, kind: CommandType, cycle: int) -> None:
        """Issue ``kind`` for ``decision``'s request; every gate has passed.

        A closed bank is activated subject to the refresh-urgency and
        mitigation gates, which the caller checks first (new activations
        would starve an overdue REF).  Channel.issue re-checks the timing
        rules and raises on a violation.
        """

        request = decision.request
        coord = request.coordinate
        self._progress = True
        if kind is CommandType.RD or kind is CommandType.WR:
            done = self._issue(Command(
                kind,
                channel=self.channel_index,
                rank=coord.rank,
                bank_group=coord.bank_group,
                bank=coord.bank,
                row=coord.row,
                column=coord.column,
                source_thread=request.thread_id,
            ), cycle)
            self.stats.row_hits += 1
            if request.first_command_cycle is None:
                request.first_command_cycle = cycle
            self._remove_from_queue(request)
            self._in_flight.append((done, request))
            if done < self._next_done:
                self._next_done = done
            self.scheduler.notify_served(decision)
        elif kind is CommandType.PRE:
            # Row conflict: close the open row first.
            self._issue(Command(
                CommandType.PRE,
                channel=self.channel_index,
                rank=coord.rank,
                bank_group=coord.bank_group,
                bank=coord.bank,
            ), cycle)
            self.stats.precharges += 1
            self.stats.row_conflicts += 1
            self.channel.ranks[coord.rank].banks[coord.bank_group][
                coord.bank].record_conflict()
        else:
            self._issue(Command(
                CommandType.ACT,
                channel=self.channel_index,
                rank=coord.rank,
                bank_group=coord.bank_group,
                bank=coord.bank,
                row=coord.row,
                source_thread=request.thread_id,
            ), cycle)
            # Every ACT implies a later PRE pair.
            self.energy.record(CommandType.PRE)
            self.stats.record_activation(request.thread_id)
            self.stats.row_misses += 1
            if request.first_command_cycle is None:
                request.first_command_cycle = cycle
            self._notify_activation(coord, request.thread_id, cycle)

    def _issue(self, command: Command, cycle: int) -> int:
        """Issue ``command``: the controller's only path to the channel.

        Records the command's energy and reports it to the scheduler, whose
        cached per-bank decisions it may invalidate.
        """

        done = self.channel.issue(command, cycle)
        self.energy.record(command.kind)
        self.scheduler.note_command(command.kind, command.rank,
                                    command.bank_group, command.bank)
        return done

    def _remove_from_queue(self, request: MemoryRequest) -> None:
        queue = self.write_queue if request.is_write else self.read_queue
        queue.remove(request)

    def _notify_activation(self, coord: DramAddress, thread_id: Optional[int],
                           cycle: int) -> None:
        for observer in self.observers:
            observer.on_activation(coord, thread_id, cycle)
        for action in self.mitigation.on_activation(coord, thread_id, cycle):
            self._pending_actions.append(action)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run the controller until all queued work completes.

        Returns the cycle at which the controller went idle.  Used by tests
        and by the end-of-simulation flush.
        """

        cycle = self.cycle
        while (self.pending_requests or self._pending_actions) and max_cycles > 0:
            cycle += 1
            max_cycles -= 1
            self.tick(cycle)
        return cycle

    def snapshot(self) -> Dict[str, object]:
        """A summary dictionary used by the stats collector."""

        return {
            "reads_completed": self.stats.reads_completed,
            "writes_completed": self.stats.writes_completed,
            "activations": self.stats.activations,
            "row_hits": self.stats.row_hits,
            "row_misses": self.stats.row_misses,
            "row_conflicts": self.stats.row_conflicts,
            "refreshes": self.stats.refreshes,
            "preventive_actions": self.stats.preventive_actions,
            "preventive_commands": self.stats.preventive_commands,
            "blocked_activations": self.stats.blocked_activations,
            "mitigation": self.mitigation.stats(),
            "channel": self.channel.stats(),
        }

"""Rank and channel composition of DRAM banks.

:class:`Rank` owns the banks of one rank and enforces rank-level constraints:
activate-to-activate spacing (tRRD_S / tRRD_L), the rolling four-activate
window (tFAW), and all-bank blocking during REF.  :class:`Channel` owns the
ranks behind one memory channel and models data-bus occupancy so that two
column commands cannot overlap their bursts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from repro.dram.bank import Bank
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig, TimingCycles


class Rank:
    """One DRAM rank: a grid of banks plus rank-wide timing state."""

    def __init__(self, config: DeviceConfig, rank_index: int = 0) -> None:
        self.config = config
        self.rank_index = rank_index
        self.timing: TimingCycles = config.timing_cycles()
        self.banks: List[List[Bank]] = [
            [
                Bank(self.timing, config.rows_per_bank, bank_group=bg, bank=ba)
                for ba in range(config.banks_per_group)
            ]
            for bg in range(config.bank_groups)
        ]
        # Recent activation timestamps for the tFAW window.
        self._act_history: Deque[int] = deque(maxlen=4)
        self._last_act_cycle: int = -(10 ** 9)
        self._last_act_bank_group: Optional[int] = None
        self._blocked_until: int = 0  # REF blocks the whole rank

        self.total_activations = 0
        self.total_refreshes = 0
        self.total_rfm = 0
        self.total_preventive_refreshes = 0

    # ------------------------------------------------------------------ #
    def bank(self, bank_group: int, bank: int) -> Bank:
        return self.banks[bank_group][bank]

    def iter_banks(self) -> Iterable[Bank]:
        for group in self.banks:
            yield from group

    # ------------------------------------------------------------------ #
    def act_floor(self, bank_group: int) -> int:
        """Rank-wide ACT spacing floor for ``bank_group`` (tRRD_S/L, tFAW).

        Changes with every ACT issued anywhere in the rank; the REF block
        is part of :meth:`floor`, not of this.
        """

        floor = 0
        if self._last_act_cycle >= 0:
            floor = self._last_act_cycle + (
                self.timing.trrd_l
                if bank_group == self._last_act_bank_group
                else self.timing.trrd_s
            )
        if len(self._act_history) == self._act_history.maxlen:
            faw = self._act_history[0] + self.timing.tfaw
            if faw > floor:
                floor = faw
        return floor

    def floor(self, kind: CommandType, bank_group: int, bank: int) -> int:
        """Bank floor of ``kind`` combined with the rank's REF block.

        Everything rank-level except the ACT spacing (:meth:`act_floor`).
        Not meaningful for REF/PREA.
        """

        floor = self.banks[bank_group][bank].floor(kind)
        blocked = self._blocked_until
        return floor if floor > blocked else blocked

    def ready(self, command: Command, cycle: int) -> bool:
        """Check rank-level and bank-level constraints for ``command``."""

        return self.kind_ready(command.kind, command.bank_group, command.bank,
                               cycle)

    def kind_ready(self, kind: CommandType, bank_group: int, bank: int,
                   cycle: int) -> bool:
        """The single implementation of the rank+bank readiness rules.

        Taking coordinates instead of a :class:`Command` lets the
        controller's hot path probe readiness without building a command
        object; :meth:`ready` is a thin wrapper.
        """

        if cycle < self._blocked_until and kind is not CommandType.REF:
            return False
        if kind is CommandType.ACT:
            if self.act_floor(bank_group) > cycle:
                return False
        if kind is CommandType.REF:
            # All banks must be precharged and idle.
            return all(
                b.ready(CommandType.REF, cycle) for b in self.iter_banks()
            )
        if kind is CommandType.PREA:
            return all(
                b.ready(CommandType.PRE, cycle) or not b.is_open()
                for b in self.iter_banks()
            )
        return self.banks[bank_group][bank].ready(kind, cycle)

    def kind_earliest_ready_cycle(self, kind: CommandType, bank_group: int,
                                  bank: int, cycle: int) -> int:
        """Earliest cycle ``kind`` can satisfy rank+bank *timing* limits.

        Purely a timing estimate: state conditions (a bank that must first be
        precharged, say) are the caller's responsibility.  Used by the
        fast-forward engine to bound how far the simulation may jump while
        the channel is timing-blocked.
        """

        if kind is CommandType.REF:
            return max(
                b.earliest_ready_cycle(CommandType.REF, cycle)
                for b in self.iter_banks()
            )
        earliest = self.floor(kind, bank_group, bank)
        if kind is CommandType.ACT:
            earliest = max(earliest, self.act_floor(bank_group))
        return earliest if earliest > cycle else cycle

    def issue(self, command: Command, cycle: int) -> int:
        """Issue ``command`` and return its completion cycle."""

        if command.kind is CommandType.REF:
            return self._issue_refresh(command, cycle)
        if command.kind is CommandType.PREA:
            return self._issue_precharge_all(command, cycle)

        bank = self.bank(command.bank_group, command.bank)
        done = bank.issue(command, cycle)

        if command.kind is CommandType.ACT:
            self.total_activations += 1
            self._act_history.append(cycle)
            self._last_act_cycle = cycle
            self._last_act_bank_group = command.bank_group
        elif command.kind is CommandType.VRR:
            self.total_preventive_refreshes += 1
        elif command.kind is CommandType.RFM:
            self.total_rfm += 1
        return done

    def _issue_refresh(self, command: Command, cycle: int) -> int:
        done = cycle
        for bank in self.iter_banks():
            done = max(done, bank.issue(
                Command(CommandType.REF, channel=command.channel,
                        rank=self.rank_index, bank_group=bank.bank_group,
                        bank=bank.bank),
                cycle,
            ))
        self._blocked_until = max(self._blocked_until, done)
        self.total_refreshes += 1
        return done

    def _issue_precharge_all(self, command: Command, cycle: int) -> int:
        done = cycle
        for bank in self.iter_banks():
            if bank.is_open():
                done = max(done, bank.issue(
                    Command(CommandType.PRE, channel=command.channel,
                            rank=self.rank_index, bank_group=bank.bank_group,
                            bank=bank.bank),
                    cycle,
                ))
        return done

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        agg: Dict[str, int] = {}
        for bank in self.iter_banks():
            for key, value in bank.stats.as_dict().items():
                agg[key] = agg.get(key, 0) + value
        agg["rank_refreshes"] = self.total_refreshes
        return agg


class Channel:
    """One memory channel: a set of ranks sharing command and data buses."""

    def __init__(self, config: DeviceConfig, channel_index: int = 0) -> None:
        self.config = config
        self.channel_index = channel_index
        self.timing = config.timing_cycles()
        self.ranks: List[Rank] = [
            Rank(config, rank_index=r) for r in range(config.ranks)
        ]
        # Data-bus floor: the earliest cycle any RD/WR may issue (the burst
        # of the previous column command must finish).  Read-only outside
        # this class.
        self.data_bus_free_at = 0
        self.commands_issued: Dict[CommandType, int] = {
            kind: 0 for kind in CommandType
        }
        # Monotonic issue counter: any issued command may change open rows,
        # timing floors, or scheduler cap state, so the controller's
        # failed-scan memo keys on this serial to prove nothing changed.
        self.issue_serial = 0

    # ------------------------------------------------------------------ #
    def rank(self, index: int) -> Rank:
        return self.ranks[index]

    def bank(self, rank: int, bank_group: int, bank: int) -> Bank:
        return self.ranks[rank].bank(bank_group, bank)

    def iter_banks(self) -> Iterable[Bank]:
        for rank in self.ranks:
            yield from rank.iter_banks()

    # ------------------------------------------------------------------ #
    def ready(self, command: Command, cycle: int) -> bool:
        return self.kind_ready(command.kind, command.rank, command.bank_group,
                               command.bank, cycle)

    # ------------------------------------------------------------------ #
    # Command-free hot-path variants.  The controller probes readiness for
    # many candidate requests per cycle; these avoid building a Command
    # object for probes that fail, and delegate to the rank so the timing
    # rules have exactly one implementation per level.
    # ------------------------------------------------------------------ #
    def kind_ready(self, kind: CommandType, rank_index: int, bank_group: int,
                   bank: int, cycle: int) -> bool:
        """Equivalent of :meth:`ready` from a command's coordinates."""

        if kind.is_column_command and cycle < self.data_bus_free_at:
            return False
        return self.ranks[rank_index].kind_ready(kind, bank_group, bank,
                                                 cycle)

    def kind_earliest_ready_cycle(self, kind: CommandType, rank_index: int,
                                  bank_group: int, bank: int,
                                  cycle: int) -> int:
        """Earliest cycle ``kind`` can satisfy channel-wide timing limits.

        Composes the rank/bank estimate with data-bus occupancy; purely a
        timing estimate — state conditions (open rows) are the caller's
        responsibility.
        """

        earliest = self.ranks[rank_index].kind_earliest_ready_cycle(
            kind, bank_group, bank, cycle
        )
        if kind.is_column_command:
            earliest = max(earliest, self.data_bus_free_at)
        return earliest

    def issue(self, command: Command, cycle: int) -> int:
        if not self.ready(command, cycle):
            raise RuntimeError(
                f"channel not ready for {command.kind} at cycle {cycle}"
            )
        done = self.ranks[command.rank].issue(command, cycle)
        if command.kind.is_column_command:
            self.data_bus_free_at = cycle + self.timing.tbl
        self.commands_issued[command.kind] += 1
        self.issue_serial += 1
        return done

    # ------------------------------------------------------------------ #
    def total_activations(self) -> int:
        return sum(rank.total_activations for rank in self.ranks)

    def stats(self) -> Dict[str, int]:
        agg: Dict[str, int] = {}
        for rank in self.ranks:
            for key, value in rank.stats().items():
                agg[key] = agg.get(key, 0) + value
        agg["commands"] = {k.value: v for k, v in self.commands_issued.items()}
        return agg

"""Tests for the §4/§5.2 OS score interface."""

import pytest

from repro.core.breakhammer import BreakHammer, BreakHammerConfig
from repro.core.software_interface import ScoreRegisterFile, SoftwareScoreTracker
from repro.dram.address import DramAddress
from repro.mitigations.base import PreventiveAction, PreventiveActionKind


def make_breakhammer(num_threads=4):
    return BreakHammer(num_threads=num_threads,
                       config=BreakHammerConfig(window_ms=0.001,
                                                threat_threshold=4.0),
                       full_quota=64, cycle_time_ns=1.0)


def attribute(bh, thread, actions=1, activations=10):
    coord = DramAddress(0, 0, 0, 0, 9, 0)
    for _ in range(actions):
        for _ in range(activations):
            bh.on_activation(coord, thread, 0)
        bh.on_preventive_action(
            PreventiveAction(PreventiveActionKind.VICTIM_REFRESH, [], "t"), 0)


class TestScoreRegisterFile:
    def test_read_matches_breakhammer_scores(self):
        bh = make_breakhammer()
        attribute(bh, 2, actions=3)
        registers = ScoreRegisterFile(bh)
        assert registers.read(2) == pytest.approx(3.0)
        assert registers.read(0) == 0.0
        assert registers.read_all() == bh.export_scores()
        assert registers.num_threads == 4


class TestSoftwareScoreTracker:
    def test_owner_accumulation_across_epochs(self):
        bh = make_breakhammer()
        tracker = SoftwareScoreTracker(ScoreRegisterFile(bh),
                                       threat_threshold=2.0)
        schedule = {0: "proc_a", 1: "proc_b", 2: "proc_b", 3: "proc_c"}
        attribute(bh, 0, actions=2)
        tracker.sample_epoch(schedule)
        attribute(bh, 0, actions=2)
        tracker.sample_epoch(schedule)
        assert tracker.score_of("proc_a") == pytest.approx(4.0)
        assert tracker.score_of("proc_b") == 0.0

    def test_circumvention_attack_detected_at_owner_level(self):
        """§5.2: the attacker rotates across hardware threads every epoch,
        so no single hardware thread stands out, but the owning process's
        cumulative score does."""

        bh = make_breakhammer()
        tracker = SoftwareScoreTracker(ScoreRegisterFile(bh),
                                       threat_threshold=4.0)
        benign_owners = {0: "victim_a", 1: "victim_b", 2: "victim_c"}
        flagged_history = []
        for epoch in range(6):
            attack_thread = 3 if epoch % 2 == 0 else 2
            schedule = dict(benign_owners)
            schedule[attack_thread] = "attacker_proc"
            if attack_thread == 2:
                schedule[3] = "victim_c"
            # The attacking thread causes this epoch's preventive actions.
            attribute(bh, attack_thread, actions=3)
            flagged_history.append(tracker.sample_epoch(schedule))
            # Hardware rotates its window between epochs.
            bh.scores.rotate()
        assert any("attacker_proc" in flagged for flagged in flagged_history)
        final = tracker.flagged_owners()
        assert final == ["attacker_proc"]
        report = tracker.report()
        assert report[0]["owner"] == "attacker_proc"
        assert len(report[0]["hw_threads_seen"]) == 2

    def test_benign_owners_not_flagged(self):
        bh = make_breakhammer()
        tracker = SoftwareScoreTracker(ScoreRegisterFile(bh),
                                       threat_threshold=4.0)
        schedule = {t: f"proc_{t}" for t in range(4)}
        for _ in range(4):
            for thread in range(4):
                attribute(bh, thread, actions=1)
            assert tracker.sample_epoch(schedule) == []

    def test_register_reset_between_samples_handled(self):
        bh = make_breakhammer()
        tracker = SoftwareScoreTracker(ScoreRegisterFile(bh),
                                       threat_threshold=1.0)
        schedule = {0: "p", 1: "q", 2: "q", 3: "q"}
        attribute(bh, 0, actions=2)
        tracker.sample_epoch(schedule)
        bh.scores.rotate()
        bh.scores.rotate()  # registers drop back to zero
        attribute(bh, 0, actions=1)
        tracker.sample_epoch(schedule)
        # 2 from the first epoch + 1 after the reset, never negative.
        assert tracker.score_of("p") == pytest.approx(3.0)

"""Serial fast vs cycle on one N_RH column.

An N_RH column — the sweep shape behind Figs. 8/9/10/12, here
(HHMA, graphene) × N_RH × BreakHammer, eight grid points — run
back-to-back under the serial ``fast`` engine, versus the per-cycle
``cycle`` reference (timed on a two-point subset: it is an order of
magnitude slower and its cost is linear in the points).

Timings land in ``benchmarks/results/BENCH_sweep.json`` (see
``conftest.record_sweep``); bit-identity of the two engines is asserted
by ``tests/test_engine_equivalence.py`` and generatively by
``tests/test_fuzz_smoke.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix

from conftest import record_sweep, run_once

_MIX = "HHMA"
_MECHANISM = "graphene"
_NRH_COLUMN = (4096, 1024, 256, 64)
_COLUMN_ID = f"{_MIX}-{_MECHANISM}-nrh-column"


def _scale():
    profile = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    if profile == "smoke":
        return dict(sim_cycles=3_000, entries=1_200, attacker=1_600)
    if profile == "full":
        return dict(sim_cycles=24_000, entries=8_000, attacker=12_000)
    return dict(sim_cycles=12_000, entries=4_000, attacker=6_000)


def _column_simulators(engine: str):
    """Fresh simulators for the eight-point column, in grid order."""

    scale = _scale()
    base = SystemConfig.fast_profile(sim_cycles=scale["sim_cycles"])
    mix = make_mix(
        _MIX, device=base.device, mapping=base.mapping,
        entries_per_core=scale["entries"],
        attacker_entries=scale["attacker"], seed=0,
        attacker_config=AttackerConfig(entries=scale["attacker"], seed=0),
    )
    simulators = []
    for nrh in _NRH_COLUMN:
        for breakhammer in (False, True):
            config = base.with_(mitigation=_MECHANISM, nrh=nrh,
                                breakhammer_enabled=breakhammer)
            simulators.append(Simulator(
                config, mix.traces,
                SimulationConfig(max_cycles=scale["sim_cycles"],
                                 engine=engine),
                attacker_threads=mix.attacker_threads,
            ))
    return simulators


def _timed(func):
    started = time.perf_counter()
    value = func()
    return value, time.perf_counter() - started


@pytest.mark.bench_smoke
def test_column_serial_fast(benchmark):
    def sweep():
        sims = _column_simulators("fast")
        (results, seconds) = _timed(lambda: [s.run() for s in sims])
        record_sweep(figure=_COLUMN_ID, engine="fast", jobs=1,
                     seconds=seconds, runs=len(results))
        return len(results)

    assert run_once(benchmark, sweep) == 2 * len(_NRH_COLUMN)


@pytest.mark.bench_smoke
def test_column_cycle_reference_subset(benchmark):
    def sweep():
        # First and last column points only: the reference engine costs
        # ~sim_cycles ticks per run, so the full column would dominate
        # the whole benchmark suite's wall-clock.
        sims = _column_simulators("cycle")
        subset = [sims[0], sims[-1]]
        (results, seconds) = _timed(lambda: [s.run() for s in subset])
        record_sweep(figure=_COLUMN_ID, engine="cycle", jobs=1,
                     seconds=seconds, runs=len(results),
                     note="2-point subset of the 8-point column")
        return len(results)

    assert run_once(benchmark, sweep) == 2

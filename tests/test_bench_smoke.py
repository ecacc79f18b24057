"""Bench smoke: one representative point of each figure sweep.

Tier-1-budget coverage of the full experiment surface: a micro-scale
harness profile with a **parallel (jobs=2) sweep executor** computes one
grid point of every figure family — motivation (fig. 2), per-mix attack
(figs. 6/7), N_RH scaling (figs. 8/9/10/12/18), latency percentiles
(fig. 11), all-benign (figs. 13/15), and the headline numbers — so the
process-pool path, the plan/submit/fold plumbing, and every figure's
plan and frame builders are exercised on each tier-1 run.  Select just
these checks with ``pytest -m bench_smoke``.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, Session

pytestmark = pytest.mark.bench_smoke

#: One point per sweep dimension: a single attack mix, a single benign mix,
#: one mechanism, one low threshold (plus the nrh_default baseline).
_SMOKE_SPEC = ExperimentSpec(
    sim_cycles=1_500,
    entries_per_core=600,
    attacker_entries=800,
    nrh_sweep=(64,),
    attack_mixes=("MMLA",),
    benign_mixes=("MMLL",),
    mechanisms=("para",),
    seeds=(0,),
)


@pytest.fixture(scope="module")
def smoke_session():
    # jobs=2 / cache_dir="" keep it hermetic even when REPRO_JOBS or
    # REPRO_CACHE_DIR are exported.
    with Session(_SMOKE_SPEC, jobs=2, cache_dir="") as session:
        assert session.runner.jobs == 2
        yield session


def test_motivation_point(smoke_session):
    figure = smoke_session.figure("fig2", mechanisms=["para"])
    assert figure.get("para").values[0] > 0


def test_attack_per_mix_points(smoke_session):
    fig6 = smoke_session.figure("fig6")
    fig7 = smoke_session.figure("fig7")
    assert fig6.get("para+BH").values[-1] > 0
    assert fig7.get("para+BH").values[-1] > 0


def test_nrh_scaling_points(smoke_session):
    fig8 = smoke_session.figure("fig8")
    assert {"para", "para+BH"} <= set(fig8.labels())
    fig10 = smoke_session.figure("fig10")
    assert fig10.get("para").values  # normalised action counts exist


def test_latency_and_energy_points(smoke_session):
    fig11 = smoke_session.figure("fig11", points=(50, 100))
    for series in fig11.series.values():
        assert series.values == sorted(series.values)
    fig12 = smoke_session.figure("fig12")
    assert all(v > 0 for v in fig12.get("para").values)


def test_benign_points(smoke_session):
    fig13 = smoke_session.figure("fig13")
    assert fig13.get("para+BH").values[-1] > 0
    fig15 = smoke_session.figure("fig15")
    assert fig15.get("para+BH").values


def test_blockhammer_and_headline_points(smoke_session):
    fig18 = smoke_session.figure("fig18")
    assert "blockhammer" in fig18.series
    numbers = smoke_session.headline_numbers()
    assert numbers["mean_benign_speedup"] > 0

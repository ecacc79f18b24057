"""The four benchmark workloads: which spec each builds and what it produces.

Every workload is a closed loop driven through the public ``repro.api``
surface.  A workload fixes the grid (mixes x mechanisms x N_RH x
BreakHammer), the scale, the backend and the artefacts it produces; the
``--seed`` of the run becomes the spec's ``seeds=(seed,)``.  See
``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Scratch space inside the checkout (caches, spools, spans); gitignored.
WORK = Path(__file__).resolve().parent.parent / ".perfbench"

#: The sweep figures (every figure with a declarative sweep plan; fig5 is
#: analytical and fig19 runs a bespoke threshold sweep outside the spec).
SWEEP_FIGURES = ("fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                 "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                 "fig18")

#: Micro scale shared by the workloads: cycles per grid point and trace
#: entries per benign / attacker core (the ``ExperimentSpec.tiny`` sizes).
SCALE = dict(sim_cycles=1_500, entries_per_core=600, attacker_entries=800)


@dataclass(frozen=True)
class Workload:
    name: str
    spec_fields: Dict[str, object]
    #: Figures the workload produces (each one is checked by the oracle).
    figures: Tuple[str, ...]
    backend: str = "local"
    workers: Optional[int] = None
    #: Serve from a RunCache filled once per run, outside every metric.
    warm: bool = False
    #: Fresh sessions regenerating the figures per repetition (warm only).
    regenerations: int = 1
    #: Figure GETs each of the two HTTP clients issues per repetition.
    requests_per_client: int = 600

    def spec(self, seed: int):
        from repro.api import ExperimentSpec

        return ExperimentSpec(seeds=(seed,), **{**SCALE, **self.spec_fields})

    def session_kwargs(self, cache_dir: str) -> Dict[str, object]:
        # Explicit values beat any REPRO_* variable in the environment.
        return dict(jobs=1, cache_dir=cache_dir, backend=self.backend,
                    workers=self.workers)

    @property
    def headline(self) -> bool:
        """Whether ``Session.headline_numbers()`` is one of its products."""

        return bool(self.spec_fields["attack_mixes"])

    @property
    def mixes(self) -> Tuple[str, ...]:
        return (tuple(self.spec_fields["attack_mixes"])
                + tuple(self.spec_fields["benign_mixes"]))


WORKLOADS: Dict[str, Workload] = {
    "attack_sweep": Workload(
        name="attack_sweep",
        spec_fields=dict(attack_mixes=("HHMA", "MMLA"), benign_mixes=(),
                         mechanisms=("graphene", "para", "rfm"),
                         nrh_sweep=(1024, 64), nrh_default=1024, nrh_low=64),
        figures=("fig6", "fig7", "fig10"),
    ),
    "benign_sweep": Workload(
        name="benign_sweep",
        spec_fields=dict(attack_mixes=(), benign_mixes=("MMLL", "LLLL"),
                         mechanisms=("graphene", "para"),
                         nrh_sweep=(1024, 64), nrh_default=1024, nrh_low=64,
                         sim_cycles=9_000),
        figures=("fig13", "fig14", "fig15", "fig16"),
    ),
    "cluster_sweep": Workload(
        name="cluster_sweep",
        spec_fields=dict(attack_mixes=("HHMA", "MMLA"),
                         benign_mixes=("MMLL", "LLLL"),
                         mechanisms=("graphene", "para", "rfm"),
                         nrh_sweep=(64,), nrh_default=64, nrh_low=64,
                         sim_cycles=600),
        figures=("fig6", "fig7", "fig10", "fig13", "fig14", "fig15",
                 "fig16"),
        backend="cluster",
        workers=2,
    ),
    "warm_figures": Workload(
        name="warm_figures",
        spec_fields=dict(attack_mixes=("HHMA", "MMLA"),
                         benign_mixes=("MMLL",),
                         mechanisms=("graphene", "para", "rfm"),
                         nrh_sweep=(1024, 64), nrh_default=1024, nrh_low=64),
        figures=SWEEP_FIGURES,
        warm=True,
        regenerations=20,
    ),
}


#: ``PERFBENCH_TINY=1`` shrinks every workload for the self-test: 300
#: cycles per point, two regenerations, 20 GETs per client.  Tiny runs
#: have no stored oracle digests (see ``oracle.expected``).
TINY = os.environ.get("PERFBENCH_TINY") == "1"
if TINY:
    WORKLOADS = {
        name: dataclasses.replace(
            workload, spec_fields={**workload.spec_fields, "sim_cycles": 300},
            regenerations=min(2, workload.regenerations),
            requests_per_client=20)
        for name, workload in WORKLOADS.items()
    }


def sweep_points(session, workload: Workload
                 ) -> Tuple[List[Tuple[str, str, int, bool]], List[str]]:
    """The grid points and alone-baseline mixes behind the products.

    The union of the runs of every produced figure's sweep plan (and of
    the headline plan), in first-seen order, plus the mixes whose
    standalone-IPC baselines they need.
    """

    runner = session.runner
    plans = [runner.figure_plan(figure_id) for figure_id in workload.figures]
    if workload.headline:
        plans.append(runner.headline_plan())
    runs = list(dict.fromkeys(run for plan in plans for run in plan.runs))
    alone = list(dict.fromkeys(m for plan in plans for m in plan.alone_mixes))
    return runs, alone


def produce(session, workload: Workload, seed: int) -> Dict[str, object]:
    """Every artefact the workload produces, as plain data.

    Figure dicts (``FigureData.as_dict()``), then the headline dict when
    the workload has attack mixes, else ``bh``: the three BreakHammer
    ratios over its benign mixes, which the headline cannot give.  These
    are what the oracle digests, with :func:`run_statistics`.
    """

    products: Dict[str, object] = {
        figure_id: figure.as_dict()
        for figure_id, figure in session.figures(workload.figures).items()
    }
    if workload.headline:
        products["headline"] = session.headline_numbers()
    else:
        products["bh"] = bh_numbers(session, workload, seed)
    return products


def bh_metrics(products: Dict[str, object]) -> Dict[str, float]:
    """The ``bh_*`` metrics of a workload's products."""

    headline = products.get("headline")
    if headline is None:
        return dict(products["bh"])
    return {"bh_speedup": headline["mean_benign_speedup"],
            "bh_energy_ratio": headline["mean_energy_ratio"],
            "bh_action_ratio": headline["mean_preventive_action_ratio"]}


def bh_numbers(session, workload: Workload, seed: int) -> Dict[str, float]:
    """BreakHammer on/off ratios of benign-only mixes, as the headline's.

    ``headline_numbers()`` covers the attack mixes only; this applies its
    semantics to the workload's benign mixes: geomean of benign weighted
    speedups, arithmetic mean of DRAM energy ratios and of
    preventive-action ratios (points whose baseline took no action are
    skipped; 1.0 when none took any), over mixes x mechanisms at the
    spec's lowest N_RH.
    """

    from repro.sim.metrics import geometric_mean

    runner = session.runner
    spec = session.spec
    speedups: List[float] = []
    energy: List[float] = []
    actions: List[float] = []
    for mechanism in spec.mechanisms:
        for mix_name in spec.benign_mixes:
            mix = runner.mix(mix_name, seed)
            base = session.run(mix_name, mechanism, spec.nrh_low, False, seed)
            with_bh = session.run(mix_name, mechanism, spec.nrh_low, True,
                                  seed)
            speedups.append(
                runner.benign_weighted_speedup(with_bh, mix)
                / max(1e-9, runner.benign_weighted_speedup(base, mix)))
            energy.append(with_bh.energy_mj / max(1e-9, base.energy_mj))
            if base.preventive_actions:
                actions.append(with_bh.preventive_actions
                               / base.preventive_actions)
    return {
        "bh_speedup": geometric_mean(speedups),
        "bh_energy_ratio": sum(energy) / len(energy),
        "bh_action_ratio": sum(actions) / len(actions) if actions else 1.0,
    }


def run_statistics(session, workload: Workload, seed: int
                   ) -> Dict[str, object]:
    """The full statistics of every grid point and alone baseline.

    The figure, headline and ``bh`` dicts are mostly ratios of
    BreakHammer on to off, so a change that moves both sides alike leaves
    them unchanged; these pin the absolute simulated output.  Labels are
    ``mix/mechanism/nrh/breakhammer`` and ``alone/mix/core``.
    """

    runner = session.runner
    runs, alone = sweep_points(session, workload)
    stats = {"/".join(map(str, run)): session.run(*run, seed)
             for run in runs}
    for mix_name in alone:
        for core, trace in enumerate(runner.mix(mix_name, seed).traces):
            stats[f"alone/{mix_name}/{core}"] = runner.alone_baseline(trace)
    return {label: dataclasses.asdict(s) for label, s in stats.items()}

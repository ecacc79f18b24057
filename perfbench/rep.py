"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays the imports, owns its memory peak and leaves no state behind.  The
repetition sets the workload up, runs its sweep, serves its figures over
HTTP, checks every artefact and prints one JSON record as the last line
of its standard output::

    python3 perfbench/rep.py --workload attack_sweep --seed 0 \
        --workdir .perfbench/scratch --cache-dir .perfbench/scratch/cache

``--trace`` adds the per-layer measurements (spans, timed cache I/O,
spool loads and the profiled re-run of the grid points), ``--check``
re-simulates one grid point under the cycle engine, and ``--fill`` only
fills the RunCache of a warm workload.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
from hostspeed import HostProbe, other_cpu, pin_to_one_cpu  # noqa: E402
from tracing import Spans, fold_by_package  # noqa: E402
from workloads import (WORK, WORKLOADS, Workload, bh_metrics,  # noqa: E402
                       produce, run_statistics, sweep_points)

#: Packages the profiled re-run folds self time into (``repro.<name>``).
SIM_PACKAGES = ("sim", "controller", "dram", "cpu", "mitigations", "core")

#: Timed ``RunCache.get`` calls per repetition (p99 keeps ten beyond it).
CACHE_GET_SAMPLES = 1_000
CACHE_PUT_SAMPLES = 200


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty sequence."""

    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))
    return ordered[rank]


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason, count=1):
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(reason)


# ---------------------------------------------------------------------- #
# Sweep
# ---------------------------------------------------------------------- #
def run_sweep(session, workload, seed, spans, tally):
    """First submit to the last artefact in hand; returns runs, products.

    Grid points and alone baselines are submitted, consumed in completion
    order (a raising handle is a failed operation), then every figure,
    headline and BreakHammer-ratio dict is produced from the warm caches.
    """

    from repro.analysis.executor import iter_completed
    from repro.api.spec import RunPoint

    runs, alone = sweep_points(session, workload)
    with spans.span("api.submit"):
        handles = session.submit_grid(RunPoint(*run, seed=seed)
                                      for run in runs)
        handles += [handle for mix in alone
                    for handle in session.submit_alone(mix, seed)]
    for handle in iter_completed(handles):
        with spans.span("executor.result"):
            try:
                handle.result()
                tally.record(True)
            except Exception as exc:  # a failed grid point
                tally.record(False, f"point {handle.key}: {exc!r}")
    with spans.span("analysis.aggregate"):
        products = produce(session, workload, seed)
    return runs, products


# ---------------------------------------------------------------------- #
# HTTP clients
# ---------------------------------------------------------------------- #
def serve(address, fingerprint, figure_ids, expected, requests_per_client,
          client_cpu, host_factor, tally):
    """Run the HTTP load (``clients.py``) against the service.

    The probe does not run during the load: sampled among the service's
    threads it read the host's speed less steadily than the service's
    CPU time did.  The service's CPU seconds are normalised by the
    factor of the sweep that ran on the same CPU seconds before.
    """

    job = dict(address=address, fingerprint=fingerprint, figures=figure_ids,
               expected=expected, requests_per_client=requests_per_client,
               cpu=client_cpu)
    # This process's CPU during the load is the service's: the clients run
    # in a process of their own.
    cpu = time.process_time()
    done = subprocess.run([sys.executable, str(HERE / "clients.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, timeout=120, check=True)
    cpu = time.process_time() - cpu
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    outcome["service_cpu_s"] = cpu * host_factor
    tally.attempted += outcome["attempted"]
    for error in outcome["errors"]:
        tally.fail(error)
    return outcome


# ---------------------------------------------------------------------- #
# Per-layer measurements (traced repetitions only)
# ---------------------------------------------------------------------- #
def simulated_layers(results, mixes):
    """Counts the modelled system reports, summed over the grid points."""

    latencies = [lat for stats, _ in results for lat in stats.read_latencies]
    hits = sum(stats.row_hits for stats, _ in results)
    misses = sum(stats.row_misses for stats, _ in results)
    bh = [(stats.breakhammer_stats["stats"], mix) for stats, mix in results
          if stats.breakhammer_stats]
    detections = sum(s["suspect_detections"] for s, _ in bh)
    on_attackers = sum(count for s, mix in bh
                       for thread, count in s["suspects_by_thread"].items()
                       if int(thread) in mixes[mix].attacker_threads)
    total = lambda attr: sum(getattr(stats, attr) for stats, _ in results)
    return {
        "controller.read_lat_p50_cyc": percentile(latencies, 0.50),
        "controller.read_lat_p99_cyc": percentile(latencies, 0.99),
        "controller.row_hit_rate": hits / max(1, hits + misses),
        "dram.activations": total("activations"),
        "dram.row_conflicts": total("row_conflicts"),
        "dram.refreshes": total("refreshes"),
        "dram.energy_mj": total("energy_mj"),
        "cpu.llc_miss_rate": total("llc_miss_rate") / len(results),
        "cpu.mshr_quota_rejections": sum(
            stats.mshr_stats.get("quota_rejections", 0)
            for stats, _ in results),
        "mitigations.preventive_actions": total("preventive_actions"),
        "mitigations.blocked_activations": total("blocked_activations"),
        "core.actions_observed": sum(s["actions_observed"] for s, _ in bh),
        "core.suspect_detections": detections,
        "core.windows_elapsed": sum(s["windows_elapsed"] for s, _ in bh),
        "core.suspect_precision": on_attackers / detections
        if detections else 0.0,
    }


def cache_layers(session, runs, results, seed, workdir):
    """Timed RunCache reads over the filled directory and scratch writes."""

    from repro.analysis.runcache import RunCache

    runner = session.runner
    keys = [runner.run_key(*run, seed) for run in runs]
    gets = []
    while len(gets) < CACHE_GET_SAMPLES:
        for key in keys:
            started = time.perf_counter()
            session.cache.get(key)
            gets.append((time.perf_counter() - started) * 1e6)
    scratch = RunCache(Path(workdir) / "put-cache", "perfbench")
    puts = []
    while len(puts) < CACHE_PUT_SAMPLES:
        for key, (stats, _) in zip(keys, results):
            started = time.perf_counter()
            scratch.put(key, stats)
            puts.append((time.perf_counter() - started) * 1e6)
    return {
        "analysis.cache_get_us.p50": percentile(gets, 0.50),
        "analysis.cache_get_us.p99": percentile(gets, 0.99),
        "analysis.cache_put_us.p50": percentile(puts, 0.50),
        "analysis.payload_bytes": sum(len(stats.to_payload())
                                      for stats, _ in results),
    }


def spool_load_s(session, mixes, seed, workdir):
    """Seconds to load the workload's traces from a columnar spool."""

    from repro.workloads.spool import TraceSpool

    spec = session.spec
    directory = session.spool_dir or str(Path(workdir) / "spool")
    spool = TraceSpool(directory)
    params = dict(entries_per_core=spec.entries_per_core,
                  attacker_entries=spec.attacker_entries,
                  fingerprint=session.fingerprint)
    for mix in mixes.values():
        spool.dump_mix(mix, seed=seed, **params)
    started = time.perf_counter()
    for name in mixes:
        if spool.load_mix(name, seed, **params) is None:
            raise RuntimeError(f"spool lost mix {name}")
    return time.perf_counter() - started


def simulators(session, runs, mixes, seed):
    """(kind, what, factory) for each grid point and alone baseline."""

    from repro.sim.simulator import Simulator

    runner = session.runner
    sim_config = runner.config.simulation_config()
    spec = session.spec
    jobs = []
    for mix_name, mechanism, nrh, breakhammer in runs:
        mix = mixes[mix_name]
        jobs.append(("point", (mix_name, mechanism, nrh, breakhammer),
                     lambda m=mix, c=runner.system_config(
                         mechanism, nrh, breakhammer): Simulator(
                         c, m.traces, sim_config,
                         attacker_threads=m.attacker_threads)))
    alone_config = runner.system_config("none", spec.nrh_default, False) \
        .with_(num_cores=1)
    traces = {trace.name: trace for mix in mixes.values()
              for trace in mix.traces}
    for trace in traces.values():
        jobs.append(("alone", trace,
                     lambda t=trace: Simulator(alone_config, [t],
                                               sim_config)))
    return jobs


def profile_layers(session, runs, mixes, seed, tally):
    """Re-run the points plainly (timed) and under cProfile (folded)."""

    jobs = simulators(session, runs, mixes, seed)
    point_s, alone_s, ticks, cycles = [], 0.0, 0, 0
    for kind, what, factory in jobs:
        started = time.perf_counter()
        simulator = factory()
        result = simulator.run()
        elapsed = time.perf_counter() - started
        ticks += simulator.ticks_executed
        cycles += result.stats.cycles
        if kind == "point":
            point_s.append(elapsed)
            served = session.run(*what, seed)
        else:
            alone_s += elapsed
            served = session.runner.alone_baseline(what)
        tally.record(dataclasses.asdict(served)
                     == dataclasses.asdict(result.stats),
                     f"re-run of {kind} {what} differs from the sweep")
    plain = sum(point_s) + alone_s
    profiler = cProfile.Profile()
    started = time.perf_counter()
    for _kind, _what, factory in jobs:
        profiler.enable()
        factory().run()
        profiler.disable()
    profiled = time.perf_counter() - started
    folded = fold_by_package(pstats.Stats(profiler))
    scale = plain / max(1e-9, sum(folded.values()))
    layers = {f"{package}.self_s": folded.get(package, 0.0) * scale
              for package in SIM_PACKAGES}
    layers.update({
        "sim.point_s.p50": percentile(point_s, 0.50),
        "sim.point_s.p90": percentile(point_s, 0.90),
        "sim.grid_s": sum(point_s),
        "sim.alone_s": alone_s,
        "sim.ticks": ticks,
        "sim.cycles": cycles,
        "sim.tick_ratio": ticks / max(1, cycles),
        "sim.host_us_per_tick": plain / max(1, ticks) * 1e6,
        "trace.profile_slowdown": profiled / max(1e-9, plain),
    })
    return layers


def spot_check(session, runs, seed, tally):
    """Re-simulate one grid point (picked by seed) under the cycle engine."""

    from repro.sim.simulator import Simulator

    runner = session.runner
    point = runs[seed % len(runs)]
    mix_name, mechanism, nrh, breakhammer = point
    mix = runner.mix(mix_name, seed)
    config = dataclasses.replace(runner.config.simulation_config(),
                                 engine="cycle")
    reference = Simulator(runner.system_config(mechanism, nrh, breakhammer),
                          mix.traces, config,
                          attacker_threads=mix.attacker_threads).run()
    served = session.run(mix_name, mechanism, nrh, breakhammer, seed)
    tally.record(dataclasses.asdict(served)
                 == dataclasses.asdict(reference.stats),
                 f"cycle engine disagrees on {point}")


# ---------------------------------------------------------------------- #
def fill(workload, args):
    """Compute every artefact of a warm workload into its RunCache."""

    from repro.api import Session

    with Session(workload.spec(args.seed), engine="fast",
                 **workload.session_kwargs(args.cache_dir)) as session:
        produce(session, workload, args.seed)
        executed = session.runs_executed
    print(json.dumps({"filled": True, "runs_executed": executed}))
    return 0


def repetition(workload: Workload, args, probe, client_cpu) -> dict:
    seed = args.seed
    tally = Tally()
    spans = Spans(run_id=f"{workload.name}-{seed}", enabled=args.trace,
                  probe=probe)
    session = None
    with contextlib.ExitStack() as cleanup:
        # Closes whichever session is current when the repetition ends.
        cleanup.callback(lambda: session is not None and session.close())
        probe.start()
        cleanup.callback(probe.stop)
        with spans.span("setup"):
            from repro.api import Session
            from repro.service import ServiceClient, start_service

            spec = workload.spec(seed)
            with spans.span("api.session_init"):
                session = Session(spec, engine="fast",
                                  **workload.session_kwargs(args.cache_dir))
            with spans.span("workloads.trace_gen"):
                mixes = {name: session.runner.mix(name, seed)
                         for name in workload.mixes}
            with spans.span("service.start"):
                service = start_service(jobs=1, engine="fast",
                                        backend="local",
                                        cache_dir=args.cache_dir)
                cleanup.callback(service.close)
                fingerprint = ServiceClient(service.address).register_spec(
                    {"spec": spec.as_dict()})
        setup_ended = time.perf_counter()
        setup_s = ((setup_ended - T0 - probe.spent(T0, setup_ended)[0])
                   * probe.factor(T0, setup_ended))
        # Raw seconds (the probe's own time taken out) and normalised ones.
        sweeps, normalised, cpus, digests = [], [], [], None
        first_started = time.perf_counter()
        for regeneration in range(workload.regenerations):
            if regeneration:
                session.close()
                session = Session(spec, engine="fast",
                                  **workload.session_kwargs(args.cache_dir))
                mixes = {name: session.runner.mix(name, seed)
                         for name in workload.mixes}
            cpu_self, cpu_children = time.process_time(), children_cpu_s()
            started = time.perf_counter()
            with spans.span("sweep"):
                runs, products = run_sweep(session, workload, seed, spans,
                                           tally)
            ended = time.perf_counter()
            cpu_self = time.process_time() - cpu_self
            probe_wall, probe_cpu = probe.spent(started, ended)
            factor = probe.factor(started, ended)
            sweeps.append(ended - started - probe_wall)
            normalised.append(sweeps[-1] * factor)
            cpu_self -= probe_cpu
            regenerated = {name: oracle.digest(obj)
                           for name, obj in products.items()}
            if digests is None:
                # Once per repetition, outside the timed sweep: the warm
                # workload's fresh sessions read the same cache entries.
                regenerated["runs"] = oracle.digest(
                    run_statistics(session, workload, seed))
                digests = regenerated
            for name, problem in oracle.mismatches(
                    regenerated, {name: digests[name]
                                  for name in regenerated}).items():
                tally.fail(f"{name}: {problem} between regenerations")
            tally.attempted += len(regenerated)
            cluster = (session.cluster_stats()
                       if workload.backend == "cluster" else None)
            cache_stats = session.cache.stats()
            runs_executed = session.runs_executed
            if cluster is not None:
                session.close()  # reaps the workers: their CPU lands here
                if cluster["requeued_points"]:
                    tally.fail("requeued points", cluster["requeued_points"])
            cpus.append((cpu_self + children_cpu_s() - cpu_children)
                        * factor)
        # The probe would distort the profiled re-run of the traced layers.
        probe.stop()
        host_factor = probe.factor(first_started, ended)
        reference = oracle.expected(workload.name, spec, seed)
        if reference is not None:
            for name, problem in oracle.mismatches(digests,
                                                   reference).items():
                tally.fail(f"{name}: {problem} from the oracle")
        rss_mb = peak_rss_mb()  # before the HTTP load's own process
        if args.check:
            spot_check(session, runs, seed, tally)
        layers = (traced_layers(session, runs, mixes, seed, spans, cluster,
                                cache_stats, runs_executed, sweeps,
                                args.workdir, tally)
                  if args.trace else None)
        # The service must not pay for the sweep's heap: release the
        # session and collect before the HTTP load.
        session.close()
        session = mixes = None
        gc.collect()
        http = serve(service.address, fingerprint, list(workload.figures),
                     {fid: digests[fid] for fid in workload.figures},
                     workload.requests_per_client, client_cpu, host_factor,
                     tally)
    record = {
        "setup_s": setup_s,
        # Warm repetitions regenerate many times; the others sweep once.
        "sweep_s": statistics.median(normalised),
        "cpu_s": statistics.median(cpus),
        "raw_sweep_s": statistics.median(sweeps),
        "digests": digests,
        "bh": bh_metrics(products),
        "peak_rss_mb": rss_mb,
        "http": http,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
    if layers is not None:
        layers.update({
            "service.miss_ms": percentile(http["miss_ms"], 0.5),
            "service.ttl_hit_ratio": http["hits"] / max(
                1, http["hits"] + http["misses"]),
            "service.throttled": http["throttled"],
            "host.probe_ms": probe.mean_s() * 1e3,
        })
        record["layers"] = layers
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        spans.write(WORK / "spans" / f"{workload.name}-{seed}.jsonl")
    return record


def traced_layers(session, runs, mixes, seed, spans, cluster, cache_stats,
                  runs_executed, sweeps, workdir, tally):
    """Per-layer metrics of a traced repetition, from spans and re-runs."""

    from repro.api.spec import RunPoint

    points = [RunPoint(*run, seed=seed) for run in runs]
    results = [(handle.result(), point.mix) for point, handle in
               zip(points, session.submit_grid(points))]
    sweep_s = statistics.fmean(sweeps)
    if cluster is not None:
        workers = len(cluster["workers"]) or 1
        busy = sum(w["elapsed"] for w in cluster["workers"].values())
    else:
        workers = 1
        busy = spans.total("executor.result") / len(sweeps)
    layers = {
        "api.session_init_s": spans.durations("api.session_init")[0],
        "api.submit_s": spans.total("api.submit") / len(sweeps),
        "workloads.trace_gen_s": spans.total("workloads.trace_gen"),
        "workloads.trace_entries": sum(len(trace) for mix in mixes.values()
                                       for trace in mix.traces),
        "workloads.spool_load_s": spool_load_s(session, mixes, seed,
                                               workdir),
        "analysis.cache_hits": cache_stats["hits"],
        "analysis.cache_misses": cache_stats["misses"],
        "analysis.cache_corrupt": cache_stats["corrupt_entries"],
        "analysis.aggregate_s": spans.total("analysis.aggregate")
        / len(sweeps),
        "analysis.runs_executed": runs_executed,
        "cluster.worker_busy_s": busy,
        "cluster.utilisation": busy / (sweep_s * workers),
        "cluster.overhead_s": sweep_s * workers - busy,
    }
    for name in ("results_received", "requeued_points", "chunked_claims",
                 "autoscale_events"):
        layers[f"cluster.{name}"] = cluster[name] if cluster else 0
    layers.update(simulated_layers(results, mixes))
    layers.update(cache_layers(session, runs, results, seed, workdir))
    layers.update(profile_layers(session, runs, mixes, seed, tally))
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--fill", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.fill:
        return fill(workload, args)
    # A local workload computes on one CPU: pin it there, so the probe
    # measures that CPU, and give the HTTP clients another.  The cluster
    # workers inherit this process's CPUs, so a cluster run is not pinned.
    cpu = pin_to_one_cpu() if workload.backend == "local" else None
    record = repetition(workload, args, HostProbe(), other_cpu(cpu))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload attack_sweep --seed 0 \
        --seconds 20 --trace 0

Repetitions of the workload (``rep.py``, each in a fresh interpreter) run
until ``--seconds`` have passed, at least three of them; the end-to-end
metrics are their medians, with host times normalised to the reference
host speed (``hostspeed.py``).  ``--trace 1`` instead runs one untraced and
one traced repetition and reports the per-layer metrics plus the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  Every
figure, headline and BreakHammer-ratio dict is checked against the
oracle (``oracle.json``), between repetitions and against the HTTP
service; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPETITIONS = 3
REPETITION_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

from rep import percentile  # noqa: E402
from workloads import WORK, WORKLOADS  # noqa: E402


class RepetitionFailed(RuntimeError):
    pass


def repetition(workload, seed, workdir, cache_dir, *flags):
    """Run ``rep.py`` once; returns its JSON record and wall seconds."""

    workdir.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir),
               "--cache-dir", str(cache_dir), *flags]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=REPETITION_TIMEOUT_S)
    if done.returncode != 0:
        raise RepetitionFailed(
            f"{' '.join(command[1:])} exited {done.returncode}:\n"
            + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1]), \
        time.perf_counter() - started


def end_to_end(records):
    """End-to-end metrics from untraced repetitions (medians)."""

    median = statistics.median
    http = [r["http"] for r in records]
    bh = records[0]["bh"]
    return {
        "setup_s": median(r["setup_s"] for r in records),
        "sweep_s": median(r["sweep_s"] for r in records),
        "cpu_s": median(r["cpu_s"] for r in records),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
        "req_cpu_ms": median(h["service_cpu_s"] * 1e3 / h["attempted"]
                             for h in http),
        "bh_speedup": bh["bh_speedup"],
        "bh_energy_ratio": bh["bh_energy_ratio"],
        "bh_action_ratio": bh["bh_action_ratio"],
    }


def http_layers(loads):
    """Throughput and latency of the closed-loop GETs, samples pooled."""

    latencies = [lat for load in loads for lat in load["latencies_ms"]]
    return {
        "req_per_s": statistics.fmean(len(load["latencies_ms"])
                                      / load["wall_s"] for load in loads),
        "req_p50_ms": percentile(latencies, 0.50),
        "req_p99_ms": percentile(latencies, 0.99),
    }


def cross_check(records):
    """Failures from repetitions that disagree with the first one."""

    first = records[0]
    return [f"repetition {index}: {name} differs"
            for index, record in enumerate(records[1:], 1)
            for name in sorted(set(first["digests"]) | set(record["digests"]))
            if first["digests"].get(name) != record["digests"].get(name)]


def measure(args, workload, run_dir, cache_for):
    """Untraced repetitions for ``args.seconds``; at least three."""

    records, walls = [], []
    started = time.perf_counter()
    while len(records) < MIN_REPETITIONS or (
            time.perf_counter() - started + statistics.median(walls)
            <= args.seconds):
        index = len(records)
        flags = ("--check",) if index == 0 else ()
        record, wall = repetition(args.workload, args.seed,
                                  run_dir / f"rep-{index}",
                                  cache_for(index), *flags)
        records.append(record)
        walls.append(wall)
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        if workload.warm:
            # Filled by this program, outside every metric, once per run:
            # cache keys digest the spec but not the code, so a cache kept
            # between runs would serve another commit's results.
            warm_cache = run_dir / "warm-cache"
            repetition(args.workload, args.seed, run_dir / "fill",
                       warm_cache, "--fill")
            cache_for = lambda index: warm_cache
        else:
            cache_for = lambda index: run_dir / f"rep-{index}" / "cache"
        if args.trace:
            untraced, _ = repetition(args.workload, args.seed,
                                     run_dir / "rep-0", cache_for(0),
                                     "--check")
            traced, _ = repetition(args.workload, args.seed,
                                   run_dir / "rep-1", cache_for(1),
                                   "--trace")
            records = [untraced, traced]
            values = dict(traced["layers"])
            values["trace.overhead_s"] = (traced["sweep_s"]
                                          - untraced["sweep_s"])
            values.update(http_layers([r["http"] for r in records]))
            kind = "per_layer"
        else:
            records = measure(args, workload, run_dir, cache_for)
            values = end_to_end(records)
            kind = "end_to_end"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    disagreements = cross_check(records)
    errors = [e for r in records for e in r["errors"]] + disagreements
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records) + len(disagreements)
    if not args.trace:
        values["success_ratio"] = 1.0 - failed / max(1, attempted)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[kind]}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} raw_sweep_s "
          f"{statistics.median(r['raw_sweep_s'] for r in records):.6g} s "
          "(median before host-speed normalisation)")
    print(f"{args.workload} failed_ratio {failed / max(1, attempted):.6g} "
          f"share (failed {failed} of {attempted} operations, "
          f"{len(records)} repetitions)")
    for error in errors[:10]:
        print(f"{args.workload} failure: {error}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RepetitionFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)

"""Self-test of the benchmark itself (about two minutes on 2 cores)::

    python3 perfbench/selftest.py

1. Every metric declared in ``BENCHMARK.json`` has a valid name and unit,
   and each name is used once.
2. Each workload, shrunk with ``PERFBENCH_TINY=1``, runs untraced and
   traced; each run is correct and emits exactly the declared metrics of
   its kind, each with its declared unit and a finite value.
3. The oracle accepts the real attack_sweep artefacts at seed 0 and flags
   a figure dict and a headline dict perturbed in their last bit, and one
   grid point's statistics off by one activation, so the check cannot
   pass vacuously.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
from workloads import WORK, WORKLOADS, produce, run_statistics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_declarations(declared):
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in declared[kind]]
    assert len(names) == len(set(names)), "a metric name is used twice"
    for kind in ("end_to_end", "per_layer"):
        for metric in declared[kind]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


def check_run(declared, workload, trace):
    env = dict(os.environ, PERFBENCH_TINY="1")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = result["metrics"]
    assert set(got) == set(want), set(got) ^ set(want)
    for name, metric in got.items():
        assert metric["unit"] == want[name], (name, metric)
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (name, value)


def check_oracle_flags_perturbation():
    from repro.api import Session

    workload = WORKLOADS["attack_sweep"]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as cache, \
            Session(workload.spec(0), engine="fast", jobs=1,
                    cache_dir=cache) as session:
        products = produce(session, workload, 0)
        products["runs"] = run_statistics(session, workload, 0)
    reference = oracle.expected("attack_sweep", workload.spec(0), 0)
    digests = {name: oracle.digest(obj) for name, obj in products.items()}
    assert oracle.mismatches(digests, reference) == {}, "oracle rejects HEAD"
    figure = copy.deepcopy(products["fig6"])
    label = next(iter(figure["series"]))
    value = figure["series"][label][0]
    figure["series"][label][0] = math.nextafter(value, math.inf)
    headline = dict(products["headline"])
    headline["mean_benign_speedup"] *= 1.0 + 1e-12
    runs = copy.deepcopy(products["runs"])
    runs[next(iter(runs))]["activations"] += 1
    perturbed = dict(digests, fig6=oracle.digest(figure),
                     headline=oracle.digest(headline),
                     runs=oracle.digest(runs))
    flagged = oracle.mismatches(perturbed, reference)
    assert flagged == {"fig6": "differs", "headline": "differs",
                       "runs": "differs"}, flagged


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    check_declarations(declared)
    print("declarations: ok")
    if os.environ.get("PERFBENCH_TINY") == "1":
        raise SystemExit("unset PERFBENCH_TINY: the oracle check needs the "
                         "full-size workloads")
    check_oracle_flags_perturbation()
    print("oracle flags a perturbed figure, headline and run: ok")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(declared, workload, trace)
            print(f"{workload} --trace {trace}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

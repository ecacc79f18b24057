"""Output oracle: expected digests of every artefact each workload produces.

``oracle.json`` holds, per workload and per oracle seed, the SHA-256 of
each figure dict, the headline or BreakHammer-ratio dict, and the full
statistics of every grid point and alone baseline (``runs``).  They are
generated serially with the cycle engine, the ground-truth reference, so
a faster engine, another executor or the cluster must reproduce them bit
for bit.  Regenerate them with the command stored in the file::

    REPRO_ENGINE=cycle python3 perfbench/oracle.py

A run whose seed has no stored digests is checked for agreement between
its repetitions, between the session and the HTTP service, and against
one cycle-engine re-run of a grid point (see ``rep.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

from workloads import TINY, WORK, WORKLOADS, produce, run_statistics

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle.json"

#: Seed 0 plus one held-out seed never used while tuning the benchmark.
ORACLE_SEEDS = (0, 7)
REGENERATE = "REPRO_ENGINE=cycle python3 perfbench/oracle.py"


def digest(obj: object) -> str:
    """Canonical digest of plain data (a JSON round trip normalises it)."""

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_key(spec) -> Dict[str, object]:
    """The spec's result-affecting fields, less the seed axis."""

    data = spec.as_dict()
    data.pop("seeds")
    return data


def expected(workload: str, spec, seed: int) -> Optional[Dict[str, str]]:
    """The stored digests of one workload at one seed, if any.

    Raises when the stored spec differs from the workload's: digests of
    other inputs would flag every artefact, so the oracle must be
    regenerated instead.  Tiny self-test runs have no stored digests.
    """

    if TINY:
        return None
    data = json.loads(ORACLE_PATH.read_text(encoding="utf-8"))
    if data["specs"][workload] != spec_key(spec):
        raise RuntimeError(f"oracle.json is stale for {workload}; "
                           f"regenerate it with: {REGENERATE}")
    return data["digests"][workload].get(str(seed))


def mismatches(digests: Dict[str, str],
               reference: Dict[str, str]) -> Dict[str, str]:
    """Artefacts whose digest differs from (or is missing in) reference."""

    names = set(digests) | set(reference)
    return {name: "differs" if name in digests and name in reference
            else "missing" for name in sorted(names)
            if digests.get(name) != reference.get(name)}


def generate(workload_name: str, seed: int, cache_root: str
             ) -> Dict[str, str]:
    """Serial digests of one workload at one seed (engine from the env)."""

    from repro.api import Session

    workload = WORKLOADS[workload_name]
    with Session(workload.spec(seed), jobs=1,
                 cache_dir=tempfile.mkdtemp(dir=cache_root)) as session:
        products = produce(session, workload, seed)
        products["runs"] = run_statistics(session, workload, seed)
        return {name: digest(obj) for name, obj in products.items()}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    if os.environ.get("REPRO_ENGINE") != "cycle":
        print("run with REPRO_ENGINE=cycle: the oracle is the cycle "
              "engine's output", file=sys.stderr)
        return 2
    digests: Dict[str, Dict[str, Dict[str, str]]] = {}
    specs = {name: spec_key(workload.spec(0))
             for name, workload in WORKLOADS.items()}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as root:
        for name in WORKLOADS:
            digests[name] = {str(seed): generate(name, seed, root)
                             for seed in ORACLE_SEEDS}
            print(f"{name}: {len(digests[name][str(ORACLE_SEEDS[0])])} "
                  "artefacts per seed", file=sys.stderr)
    ORACLE_PATH.write_text(json.dumps({
        "command": REGENERATE,
        "engine": "cycle",
        "seeds": list(ORACLE_SEEDS),
        "specs": specs,
        "digests": digests,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

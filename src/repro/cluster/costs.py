"""Per-point cost model for cost-aware cluster scheduling.

The broker schedules blind without this: a 100ms fast-engine point and a
multi-second cycle-engine point are the same "one task" to a FIFO queue.
:class:`CostModel` predicts seconds per :class:`~repro.analysis.executor.RunTask`
so the broker can dispatch longest-job-first and hand cheap points out in
chunks (see :mod:`repro.cluster.broker`).

Predictions have two tiers:

* **static** — a cold-start estimate from features that exist before any
  point has run: engine weight (cycle ≫ fast), trace entries per mix
  (cores × entries, plus the attacker trace on attack mixes), an N_RH
  pressure factor (lower thresholds mean more mitigations), and the
  mechanism class.
* **learned** — observed wall-clock seconds folded into an EWMA keyed by
  ``(kind, engine, mix, mechanism-class)``.  Workers stamp ``elapsed``
  into every ``result`` frame; the broker calls :meth:`observe`.

Only the *ordering* of predictions matters for scheduling — an estimate
off by 2x still sorts cycle points ahead of fast points — so the static
calibration constants are deliberately coarse.

The learned table persists as ``costs.json`` next to the run-cache
entries of the spec's fingerprint directory (``RunCache.directory``), so
a later campaign over the same cache starts warm.  The file is advisory:
a missing, stale, or corrupt table falls back to static predictions.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Optional

from repro.analysis.executor import TASK_ALONE

#: Relative engine weight of one simulated trace entry.  The cycle engine
#: steps every core every DRAM cycle; the fast engine replays each access
#: once.
_ENGINE_WEIGHT = {"cycle": 25.0, "fast": 1.0}

#: Seconds per (fast-engine) trace entry — a coarse single-machine
#: calibration; ordering, not accuracy, is what scheduling needs.
_SECONDS_PER_ENTRY = 2.5e-5

#: Mechanism-class work factors: gating mechanisms (blockhammer) throttle
#: the request stream itself, tracked mechanisms pay per-mitigation work,
#: and unprotected runs skip the mitigation path entirely.
_CLASS_WEIGHT = {"none": 0.85, "gating": 1.1, "mitigated": 1.0}

#: Mechanisms that gate/throttle rather than refresh-mitigate.
_GATING_MECHANISMS = frozenset({"blockhammer"})

#: Serialised table schema version.
_TABLE_VERSION = 1


def mechanism_class(name: Optional[str]) -> str:
    """Coarse mechanism grouping used as the EWMA key's last component."""

    lowered = (name or "none").lower()
    if lowered in ("none", "alone"):
        return "none"
    if lowered in _GATING_MECHANISMS:
        return "gating"
    return "mitigated"


def describe_task(task) -> str:
    """A human-readable one-line name for diagnostics and errors."""

    if task.kind == TASK_ALONE:
        return (f"alone[{task.mix_name}#{task.trace_index} "
                f"seed={task.seed}]")
    return (f"run[{task.mix_name}/{task.mechanism}/nrh={task.nrh}"
            f"{'/bh' if task.breakhammer else ''}/seed={task.seed}]")


class CostModel:
    """Predicted seconds per task: static cold-start + online EWMA.

    ``spec`` is the resolved :class:`repro.api.ExperimentSpec` (trace
    lengths and the engine live there); ``path`` is the optional JSON
    persistence location.  Thread-safe: the broker observes from handler
    threads while the scheduler predicts from others.
    """

    def __init__(self, spec, path: Optional[Path] = None,
                 alpha: float = 0.3) -> None:
        self.spec = spec
        self.path = Path(path) if path is not None else None
        self.alpha = alpha
        self.observations = 0
        self._table: Dict[str, float] = {}
        self._lock = threading.Lock()
        if self.path is not None:
            self.load()

    @classmethod
    def for_cache(cls, spec, cache) -> "CostModel":
        """A model persisting next to ``cache``'s entries (or in-memory)."""

        path = (Path(cache.directory) / "costs.json"
                if cache is not None else None)
        return cls(spec, path=path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def _key(self, task) -> str:
        if task.kind == TASK_ALONE:
            return f"alone|{self.spec.engine}|{task.mix_name}|none"
        return (f"run|{self.spec.engine}|{task.mix_name}|"
                f"{mechanism_class(task.mechanism)}")

    def predict(self, task) -> float:
        """Predicted seconds for ``task`` (learned if seen, else static)."""

        with self._lock:
            seconds = self._table.get(self._key(task))
        if seconds is not None:
            return seconds
        return self._static_seconds(task)

    def _static_seconds(self, task) -> float:
        spec = self.spec
        weight = _ENGINE_WEIGHT.get(spec.engine, 1.0)
        if task.kind == TASK_ALONE:
            # One trace on one core; attacker traces are the longest.
            entries = max(spec.entries_per_core, spec.attacker_entries)
            return max(1e-4, entries * weight * _SECONDS_PER_ENTRY
                       * _CLASS_WEIGHT["none"])
        cores = max(1, len(task.mix_name))
        entries = spec.entries_per_core * cores
        if any(ch in task.mix_name for ch in "AD"):
            entries += spec.attacker_entries
        klass = _CLASS_WEIGHT[mechanism_class(task.mechanism)]
        # Lower thresholds trigger more mitigation work; a gentle sublinear
        # pressure term keeps nrh=64 above nrh=4096 without dwarfing the
        # engine/size features.
        nrh = max(1, int(task.nrh) or spec.nrh_default)
        pressure = 1.0 + 0.25 * min(4.0, (spec.nrh_default / nrh) ** 0.5)
        return max(1e-4,
                   entries * weight * _SECONDS_PER_ENTRY * klass * pressure)

    # ------------------------------------------------------------------ #
    # Online refinement
    # ------------------------------------------------------------------ #
    def observe(self, task, elapsed: Optional[float]) -> None:
        """Fold one observed wall-clock duration into the EWMA table."""

        if elapsed is None or not (elapsed > 0.0):
            return
        self._observe_key(self._key(task), elapsed)
        # Throttled persistence; the broker saves once more at stop().
        if self.path is not None and self.observations % 8 == 0:
            self.save()

    def _observe_key(self, key: str, seconds: float) -> None:
        with self._lock:
            previous = self._table.get(key)
            if previous is None:
                self._table[key] = seconds
            else:
                self._table[key] = (self.alpha * seconds
                                    + (1.0 - self.alpha) * previous)
            self.observations += 1

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def load(self) -> bool:
        """Load the persisted table if present/valid; ``True`` on success."""

        if self.path is None:
            return False
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        if (not isinstance(raw, dict)
                or raw.get("version") != _TABLE_VERSION
                or not isinstance(raw.get("seconds"), dict)):
            return False
        table = {str(key): float(value)
                 for key, value in raw["seconds"].items()
                 if isinstance(value, (int, float)) and value > 0.0}
        with self._lock:
            self._table.update(table)
        return True

    def save(self) -> None:
        """Atomically persist the learned table (best-effort)."""

        if self.path is None:
            return
        with self._lock:
            payload = {"version": _TABLE_VERSION,
                       "engine": self.spec.engine,
                       "seconds": dict(self._table)}
        tmp = self.path.with_suffix(".json.tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
            tmp.replace(self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

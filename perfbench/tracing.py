"""Span recorder and profiler fold for the traced benchmark run.

Spans are recorded in memory around the benchmark's own calls into each
layer (name, start, end, parent, run id) and written out once, at the end
of the repetition.  ``System.tick`` cannot be split into its components
from outside the program, so :func:`fold_by_package` folds a deterministic
profile of re-run grid points by ``repro.<package>``.
"""

from __future__ import annotations

import contextlib
import json
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional


class Spans:
    """In-memory span recorder; a disabled recorder records nothing.

    Durations leave out the time the host-speed probe (``hostspeed.py``)
    spent inside a span, so a span measures the work it wraps.
    """

    def __init__(self, run_id: str, enabled: bool, probe=None) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.probe = probe
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = {"id": index, "name": name, "parent": parent,
                  "run": self.run_id, "start": time.perf_counter(),
                  "end": None}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _duration(self, record: dict) -> float:
        probe_s = (self.probe.spent(record["start"], record["end"])[0]
                   if self.probe is not None else 0.0)
        return record["end"] - record["start"] - probe_s

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""

        return sum(self.durations(name))

    def durations(self, name: str) -> List[float]:
        return [self._duration(r) for r in self.records
                if r["name"] == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def _package(filename: str) -> Optional[str]:
    """``repro.<package>`` of a source file, or ``None`` outside repro."""

    parts = Path(filename).parts
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    return rest[0] if len(rest) > 1 else "repro"


def fold_by_package(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per ``repro.<package>`` (``other`` for the rest).

    Built-in functions (``len``, ``list.append``, ...) have no source file;
    their self time is charged to the packages of their callers, split by
    the time each caller spent in them.
    """

    folded: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), entry in stats.stats.items():
        _cc, _nc, self_time, _cum, callers = entry
        if filename == "~" and callers:
            spent = sum(edge[2] for edge in callers.values()) or 1.0
            for (caller_file, _l, _n), edge in callers.items():
                package = _package(caller_file) or "other"
                folded[package] += self_time * edge[2] / spent
            continue
        folded[_package(filename) or "other"] += self_time
    return dict(folded)

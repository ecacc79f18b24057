"""Session streaming aggregation: bit-identical to a fixed reference.

The contract pinned here: every figure computed through the futures
surface (:meth:`repro.api.Session.figure` / :meth:`figures` /
:meth:`headline_numbers`) is **bit-identical** to a fixed reference — on
the serial executor and the ``jobs=2`` process pool, against a cold and a
warm on-disk run cache.  The reference is a table of SHA-256 digests of
the figure dicts, so it cannot drift along with the code under test.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import tempfile

import pytest

from repro.api import ExperimentSpec, RunPoint, Session, iter_completed

#: Small enough for tier-1, big enough to exercise attack + benign grids,
#: baselines, and per-trace alone-IPC sharding.
SPEC = ExperimentSpec.tiny(mechanisms=("para", "rfm"))

#: The equivalence matrix runs these figures: a per-mix ratio figure
#: (alone-IPC baselines), an energy sweep (no alone), and the motivation
#: figure (no-mitigation baseline runs).
FIGURE_IDS = ("fig6", "fig12", "fig2")

FIG2_KWARGS = dict(mechanisms=["para", "rfm"])

#: SHA-256 of ``json.dumps(value, sort_keys=True)`` for the fig6, fig12,
#: fig2 (``FIG2_KWARGS``) dicts and the headline numbers of ``SPEC``.
#: Recorded from the batch ``ExperimentRunner.figureN`` path before it was
#: removed (serial, caches off); every path since must reproduce them.
REFERENCE_DIGESTS = {
    "fig6": "e35dd1f8c67350527f93a4b44f8c422ff7ff67d34fc4d10544509cc55be2a0d4",
    "fig12": "a9a1a9fb0e744acc4871046ebf886efe0e7c2020331c5761fbd030b78056eeec",
    "fig2": "976aa0d2ecfdadcdd060abe10d9e9a8eb7766a0294992785adee1e6183d0250c",
    "headline":
        "c9a25755380f88fe5b42455f57c4447065d57aff3f1fbbeee00fdf0885b56c12",
}


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def reference() -> dict:
    return REFERENCE_DIGESTS


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
def test_streamed_figures_bit_identical_to_batch(jobs, reference):
    with Session(SPEC, jobs=jobs, cache_dir="") as session:
        assert session.jobs == jobs
        assert digest(session.figure("fig6").as_dict()) == reference["fig6"]
        assert digest(session.figure("fig12").as_dict()) \
            == reference["fig12"]
        assert digest(session.figure("fig2", **FIG2_KWARGS).as_dict()) \
            == reference["fig2"]
        assert digest(session.headline_numbers()) == reference["headline"]


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
def test_streamed_figures_cold_and_warm_cache(jobs, reference, tmp_path):
    cache_dir = str(tmp_path / "cache")
    # Cold cache: everything simulates, results land on disk.
    with Session(SPEC, jobs=jobs, cache_dir=cache_dir) as cold:
        cold_results = cold.figures(
            FIGURE_IDS, fig2=FIG2_KWARGS,
        )
        executed = cold.runs_executed
        assert executed > 0
    for figure_id in FIGURE_IDS:
        assert digest(cold_results[figure_id].as_dict()) \
            == reference[figure_id]
    # Warm cache: a fresh session simulates nothing and still matches.
    with Session(SPEC, jobs=jobs, cache_dir=cache_dir) as warm:
        warm_results = warm.figures(FIGURE_IDS, fig2=FIG2_KWARGS)
        assert warm.runs_executed == 0
    for figure_id in FIGURE_IDS:
        assert digest(warm_results[figure_id].as_dict()) \
            == reference[figure_id]


def test_overlapped_figures_match_individual(reference):
    """figures() (shared submission, early aggregation) changes nothing."""

    with Session(SPEC, jobs=2, cache_dir="") as session:
        combined = session.figures(FIGURE_IDS, fig2=FIG2_KWARGS)
    for figure_id in FIGURE_IDS:
        assert digest(combined[figure_id].as_dict()) == reference[figure_id]


class TestHandles:
    def test_submit_deduplicates_inflight_points(self):
        with Session(SPEC, jobs=1, cache_dir="") as session:
            first = session.submit("MMLA", "para", 64, True)
            second = session.submit("MMLA", "para", 64, True)
            assert first is second
            stats = first.result()
            assert session.runs_executed == 1
            # A fresh handle over the now-cached point is born completed.
            third = session.submit("MMLA", "para", 64, True)
            assert third.done()
            assert dataclasses.asdict(third.result()) \
                == dataclasses.asdict(stats)

    def test_submit_grid_one_handle_per_distinct_point(self):
        points = [
            RunPoint("MMLA", "para", 64, False),
            RunPoint("MMLA", "para", 64, False),   # duplicate
            RunPoint("MMLA", "rfm", 64, False),
        ]
        with Session(SPEC, jobs=1, cache_dir="") as session:
            handles = session.submit_grid(points)
            assert len(handles) == 2
            for handle in iter_completed(handles):
                handle.result()
            assert session.runs_executed == 2

    def test_alone_baselines_are_first_class_points(self):
        """Per-trace alone-IPC handles shard through the same pool."""

        with Session(SPEC, jobs=2, cache_dir="") as session:
            handles = session.submit_alone("MMLA")
            mix = session.runner.mix("MMLA")
            assert len(handles) == len(mix.traces)
            ipcs = {h.key: h.result().ipc for h in iter_completed(handles)}
            # The merged futures agree with the serial reference API.
            for trace in mix.traces:
                assert session.runner.alone_ipc(trace) \
                    == ipcs[(trace.name, len(trace))]

    def test_pool_and_serial_handles_agree(self):
        with Session(SPEC, jobs=1, cache_dir="") as serial, \
                Session(SPEC, jobs=2, cache_dir="") as pool:
            lhs = serial.run("MMLA", "rfm", 64, True)
            rhs = pool.run("MMLA", "rfm", 64, True)
            assert dataclasses.asdict(lhs) == dataclasses.asdict(rhs)

    def test_stream_callback_sees_every_handle(self):
        seen = []
        with Session(SPEC, jobs=1, cache_dir="") as session:
            figure = session.stream("fig6", on_result=seen.append)
        plan = None
        with Session(SPEC, jobs=1, cache_dir="") as session:
            plan = session.runner.figure_plan("fig6")
        alone_traces = 4  # MMLA: three benign + one attacker trace
        assert len(seen) == len(set(plan.runs)) + alone_traces
        assert digest(figure.as_dict()) == REFERENCE_DIGESTS["fig6"]


class TestTables:
    def test_tables_exposed(self):
        with Session(SPEC, jobs=1, cache_dir="") as session:
            assert len(session.table("table1")) > 0
            assert len(session.table("hw")) > 0
            with pytest.raises(ValueError):
                session.table("table99")

    def test_unknown_figure_rejected(self):
        with Session(SPEC, jobs=1, cache_dir="") as session:
            with pytest.raises(ValueError):
                session.figure("fig99")


class TestFiguresValidateFirst:
    """figures() rejects a bad id before it submits any point."""

    @pytest.mark.parametrize("figure_ids", [
        ["headline"],              # not a figure: headline_numbers() is
        ["fig6", "fig12", "fig99"],  # a bad id after good ones
    ], ids=["headline", "unknown_late"])
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
    def test_bad_id_raises_before_any_run(self, figure_ids, jobs):
        with Session(SPEC, jobs=jobs, cache_dir="") as session:
            with pytest.raises(ValueError, match="unknown figure"):
                session.figures(figure_ids)
            assert session.runs_executed == 0
            assert not session.runner._inflight_runs


class TestConstructionCleanup:
    def test_failed_broker_leaves_no_spool_tempdir(self, tmp_path,
                                                   monkeypatch):
        # Session-owned spool tempdirs land under the temp root; point it
        # at a private directory so concurrent sessions cannot interfere.
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        missing = tmp_path / "missing" / "broker.sock"
        with pytest.raises(FileNotFoundError):
            Session(SPEC, backend="cluster", cache_dir="",
                    broker=f"unix:{missing}")
        assert glob.glob(os.path.join(str(tmp_path), "repro-spool-*")) == []

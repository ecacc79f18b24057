"""Tests for ``repro.service`` — the always-on experiment server.

Layers, bottom up: the TTL/LRU figure cache and the BreakHammer-style
quota manager as pure units (deterministic fake clocks); the
:class:`ExperimentService` application surface directly; and the real
HTTP daemon + client (``service_smoke`` marker) — including the
acceptance contracts: N concurrent clients hammering one figure get
bit-identical dicts to a direct :class:`~repro.api.Session` with the
executor run counter proving all but the first request were cache hits,
and a client exceeding its quota gets 429 + ``Retry-After`` while an
innocent client's job completes.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.analysis.runcache import RunCache
from repro.api import ExperimentSpec, Session
from repro.service import (
    ApiError,
    ExperimentService,
    QuotaManager,
    QuotaPolicy,
    ServiceClient,
    TTLCache,
    start_service,
)
from repro.service.client import ServiceError
from repro.service.client import Throttled as ClientThrottled
from repro.service.jobs import JobRegistry
from repro.service.quotas import (
    BURST_ENV,
    MAX_OUTSTANDING_ENV,
    RATE_ENV,
)
from repro.sim.config import ENGINE_ENV

TINY = {"profile": "tiny"}

#: Quota policy that admits one cold sweep and then throttles: the bucket
#: holds one (clamped) charge and refills ~never on test time scales.
STINGY = QuotaPolicy(rate=1e-9, burst=1e-6, max_outstanding=4)


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------- #
# TTL cache
# ---------------------------------------------------------------------- #
class TestTTLCache:
    def test_put_get_roundtrip_and_isolation(self):
        cache = TTLCache(ttl=10.0)
        value = {"series": {"a": [1.0, 2.0]}}
        cache.put(("fp", "fig8"), value)
        value["series"]["a"].append(3.0)  # caller mutation after put
        first = cache.get(("fp", "fig8"))
        assert first == {"series": {"a": [1.0, 2.0]}}
        first["series"]["a"].clear()  # caller mutation after get
        assert cache.get(("fp", "fig8")) == {"series": {"a": [1.0, 2.0]}}

    def test_expiry_counts_and_misses(self):
        clock = FakeClock()
        cache = TTLCache(ttl=5.0, clock=clock)
        cache.put("k", 1)
        assert cache.get("k") == 1
        clock.advance(5.0)
        assert cache.get("k") is None
        assert cache.expirations == 1
        assert cache.misses == 1
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = TTLCache(ttl=100.0, max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a: b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_invalidate_and_clear(self):
        cache = TTLCache(ttl=100.0)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_stats_hit_rate(self):
        cache = TTLCache(ttl=100.0)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="ttl"):
            TTLCache(ttl=0.0)
        with pytest.raises(ValueError, match="max_entries"):
            TTLCache(max_entries=0)


# ---------------------------------------------------------------------- #
# Quotas
# ---------------------------------------------------------------------- #
class TestQuotaPolicy:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(RATE_ENV, "2.5")
        monkeypatch.setenv(BURST_ENV, "7.0")
        monkeypatch.setenv(MAX_OUTSTANDING_ENV, "2")
        policy = QuotaPolicy.from_env()
        assert (policy.rate, policy.burst, policy.max_outstanding) == \
            (2.5, 7.0, 2)
        # Explicit overrides beat the environment.
        assert QuotaPolicy.from_env(burst=1.0).burst == 1.0

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(RATE_ENV, "fast")
        with pytest.raises(ValueError, match=RATE_ENV):
            QuotaPolicy.from_env()

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            QuotaPolicy(rate=0.0)
        with pytest.raises(ValueError, match="burst"):
            QuotaPolicy(burst=-1.0)
        with pytest.raises(ValueError, match="max_outstanding"):
            QuotaPolicy(max_outstanding=0)


class TestQuotaManager:
    def manager(self, **policy):
        clock = FakeClock()
        defaults = dict(rate=1.0, burst=10.0, max_outstanding=2)
        defaults.update(policy)
        return QuotaManager(QuotaPolicy(**defaults), clock=clock), clock

    def test_fresh_client_admitted_and_charged(self):
        manager, _ = self.manager()
        decision = manager.admit("alice", 4.0)
        assert decision.allowed and decision.charged == 4.0
        assert manager.stats()["alice"]["tokens"] == pytest.approx(6.0)

    def test_charge_clamped_to_burst(self):
        # A request dearer than the whole bucket is still admittable from
        # a full bucket: throttling slows heavy hitters, never starves.
        manager, _ = self.manager()
        decision = manager.admit("alice", 1e9)
        assert decision.allowed and decision.charged == 10.0

    def test_depleted_client_throttled_with_retry_after(self):
        manager, clock = self.manager()
        manager.admit("alice", 10.0)
        manager.release("alice")
        decision = manager.admit("alice", 6.0)
        assert not decision.allowed
        assert decision.retry_after == 6  # ceil(6.0 deficit / 1.0 rate)
        assert "cost quota" in decision.reason
        clock.advance(6.0)  # refilled exactly enough
        assert manager.admit("alice", 6.0).allowed

    def test_queue_share_bound(self):
        manager, _ = self.manager()
        assert manager.admit("alice", 0.1).allowed
        assert manager.admit("alice", 0.1).allowed
        decision = manager.admit("alice", 0.1)
        assert not decision.allowed
        assert "queue share" in decision.reason
        manager.release("alice")
        assert manager.admit("alice", 0.1).allowed

    def test_release_refund_restores_tokens(self):
        manager, _ = self.manager()
        decision = manager.admit("alice", 8.0)
        manager.release("alice", refund=decision.charged)
        stats = manager.stats()["alice"]
        assert stats["tokens"] == pytest.approx(10.0)
        assert stats["refunded_seconds"] == pytest.approx(8.0)
        assert stats["outstanding"] == 0

    def test_clients_are_independent(self):
        manager, _ = self.manager()
        manager.admit("greedy", 10.0)
        assert not manager.admit("greedy", 10.0).allowed
        assert manager.admit("gentle", 10.0).allowed

    def test_served_counters(self):
        manager, _ = self.manager()
        manager.note_served("alice", cached=True)
        manager.note_served("alice", cached=False)
        stats = manager.stats()["alice"]
        assert stats["served"] == 2
        assert stats["served_cached"] == 1
        assert stats["throttled"] == 0


# ---------------------------------------------------------------------- #
# Jobs
# ---------------------------------------------------------------------- #
class TestJobRegistry:
    def test_lifecycle(self):
        registry = JobRegistry()
        job = registry.create("alice", "fp", "fig8")
        assert job.as_dict()["state"] == "pending"
        job.start(total=0)
        job.set_total(7)
        job.bump()
        job.bump()
        data = job.as_dict()
        assert data["state"] == "running"
        assert data["progress"] == {"total": 7, "completed": 2, "executed": 0}
        job.finish(executed=3)
        data = job.as_dict()
        assert data["state"] == "done" and not data["cached"]
        assert data["progress"]["executed"] == 3
        assert registry.get(job.job_id) is job
        assert registry.get("nope") is None

    def test_failure(self):
        registry = JobRegistry()
        job = registry.create("alice", "fp", "fig8")
        job.start()
        job.fail("boom")
        data = job.as_dict()
        assert data["state"] == "failed" and data["error"] == "boom"

    def test_prune_keeps_live_jobs(self):
        registry = JobRegistry(max_jobs=2)
        done = registry.create("a", "fp", "fig2")
        done.finish()
        live = registry.create("a", "fp", "fig6")
        live.start()
        registry.create("a", "fp", "fig7")  # pushes over capacity
        assert registry.get(done.job_id) is None  # terminal: evicted
        assert registry.get(live.job_id) is live  # live: kept
        assert registry.stats()["by_state"]["running"] == 1


# ---------------------------------------------------------------------- #
# Satellites: RunCache.stats entry count, uniform Session.stats
# ---------------------------------------------------------------------- #
class TestRunCacheStats:
    def test_counters_and_entry_count(self, tmp_path):
        with Session(ExperimentSpec.tiny(),
                     cache_dir=str(tmp_path)) as session:
            session.run("MMLA", "para", 64)
            stats = session.cache.stats()
        assert stats["entries"] == 1
        assert stats["writes"] == 1
        assert stats["misses"] >= 1
        assert stats["corrupt_entries"] == 0

    def test_entry_count_tracks_directory(self, tmp_path):
        cache = RunCache(tmp_path, "finger")
        assert cache.stats()["entries"] == 0
        assert cache.get(("k",)) is None  # miss on empty
        assert cache.stats()["misses"] == 1
        assert cache.stats()["directory"].endswith("finger")


class TestSessionStats:
    def test_local_backend_returns_useful_counters(self):
        with Session(ExperimentSpec.tiny(), cache_dir="") as session:
            session.run("MMLA", "para", 64)
            stats = session.stats()
        assert stats["backend"] == "local"
        assert stats["jobs"] == 1
        assert stats["engine"] == session.engine
        assert stats["runs_executed"] == 1
        assert stats["fingerprint"] == session.fingerprint
        assert stats["cache"] is None  # disabled cache is explicit
        assert "cluster" not in stats

    def test_cache_counters_nested(self, tmp_path):
        with Session(ExperimentSpec.tiny(),
                     cache_dir=str(tmp_path)) as session:
            session.run("MMLA", "para", 64)
            stats = session.stats()
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["writes"] == 1


# ---------------------------------------------------------------------- #
# The service application surface (no HTTP)
# ---------------------------------------------------------------------- #
class TestExperimentService:
    def test_register_is_idempotent(self):
        with ExperimentService(cache_dir="") as service:
            first, created = service.register_spec_data(dict(TINY))
            again, recreated = service.register_spec_data(dict(TINY))
        assert created and not recreated
        assert first == again

    def test_register_rejects_bad_spec(self):
        with ExperimentService(cache_dir="") as service:
            with pytest.raises(ApiError) as info:
                service.register_spec_data({"spec": {"mechanisms": ["warp"]}})
        assert info.value.status == 400
        assert "warp" in info.value.message

    def test_session_table_bounded(self):
        with ExperimentService(cache_dir="", max_sessions=1) as service:
            service.register_spec_data(dict(TINY))
            with pytest.raises(ApiError) as info:
                service.register_spec_data(
                    {"profile": "tiny", "spec": {"sim_cycles": 1_600}})
        assert info.value.status == 409

    def test_unknown_fingerprint_and_figure(self):
        with ExperimentService(cache_dir="") as service:
            fingerprint, _ = service.register_spec_data(dict(TINY))
            with pytest.raises(ApiError) as missing:
                service.figure("deadbeef", "fig8", "alice")
            assert missing.value.status == 404
            with pytest.raises(ApiError) as unknown:
                service.figure(fingerprint, "fig99", "alice")
            assert unknown.value.status == 400

    def test_invalid_engine_fails_at_start(self, monkeypatch):
        """A bad engine is rejected when the service starts, not per request.

        Resolved per request, the error is raised inside the handler
        thread and every client sees a dropped connection instead of an
        error response.
        """

        with pytest.raises(ValueError, match="batch"):
            start_service(engine="batch", cache_dir="")
        monkeypatch.setenv(ENGINE_ENV, "batch")
        with pytest.raises(ValueError, match=ENGINE_ENV):
            start_service(cache_dir="")

    def test_predicted_cost_is_positive_for_plans(self):
        with ExperimentService(cache_dir="") as service:
            fingerprint, _ = service.register_spec_data(dict(TINY))
            assert service.predicted_cost(fingerprint, "fig8") > 0.0
            # fig5 is analytical — empty sweep plan, nothing to charge.
            assert service.predicted_cost(fingerprint, "fig5") == 0.0


# ---------------------------------------------------------------------- #
# The real HTTP daemon (server + client), tier-1 sized
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reference_fig8():
    """fig8 computed through a direct Session — the bit-identity oracle."""

    with Session(ExperimentSpec.tiny(), cache_dir="") as session:
        figure = session.figure("fig8")
        return {
            "dict": json.loads(json.dumps(figure.as_dict())),
            "runs_executed": session.runs_executed,
        }


@pytest.mark.service_smoke
class TestServiceHTTP:
    def test_warm_figures_are_ttl_hits_and_bit_identical(self, reference_fig8):
        with start_service(cache_dir="", ttl=600.0) as running:
            client = ServiceClient(running.address, client_id="alice")
            fingerprint = client.register_spec(dict(TINY))
            first, state = client.figure_response(fingerprint, "fig8")
            assert state == "miss"
            assert first == reference_fig8["dict"]
            executed = running.service.statsz()["sessions"][fingerprint][
                "runs_executed"]
            assert executed == reference_fig8["runs_executed"]
            for _ in range(3):
                warm, state = client.figure_response(fingerprint, "fig8")
                assert state == "hit"
                assert warm == first
            stats = running.service.statsz()
            # Zero new sweep-point executions for the warm requests.
            assert stats["sessions"][fingerprint]["runs_executed"] == executed
            assert stats["figure_cache"]["hits"] >= 3
            assert stats["clients"]["alice"]["served_cached"] == 3

    def test_concurrent_clients_coalesce_to_one_sweep(self, reference_fig8):
        with start_service(cache_dir="", ttl=600.0) as running:
            setup = ServiceClient(running.address, client_id="setup")
            fingerprint = setup.register_spec(dict(TINY))
            results: list = []
            errors: list = []

            def hammer(index: int) -> None:
                client = ServiceClient(running.address,
                                       client_id=f"client-{index}")
                try:
                    results.append(client.figure(fingerprint, "fig8"))
                except Exception as exc:  # noqa: BLE001 - test collector
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors
            assert len(results) == 6
            for payload in results:
                assert payload == reference_fig8["dict"]
            stats = running.service.statsz()
            # The executor ran the sweep exactly once: every other request
            # was served by the TTL cache (before or after the lock).
            assert stats["sessions"][fingerprint]["runs_executed"] == \
                reference_fig8["runs_executed"]
            assert stats["figure_cache"]["hits"] >= 5

    def test_job_flow_streams_progress(self):
        with start_service(cache_dir="", ttl=600.0) as running:
            client = ServiceClient(running.address, client_id="alice")
            fingerprint = client.register_spec(dict(TINY))
            job = client.submit_figure(fingerprint, "fig6")
            assert job["state"] in ("pending", "running")
            done = client.wait_job(job["job"])
            assert done["state"] == "done"
            assert not done["cached"]
            progress = done["progress"]
            assert progress["total"] > 0
            assert progress["completed"] == progress["total"]
            assert progress["executed"] > 0
            figure, state = client.figure_response(fingerprint, "fig6")
            assert state == "hit"
            assert figure["figure_id"] == "fig6"
            # Resubmitting a warm figure completes instantly, cached.
            warm = client.submit_figure(fingerprint, "fig6")
            assert warm["state"] == "done" and warm["cached"]

    def test_heavy_hitter_throttled_while_innocent_completes(self):
        with start_service(cache_dir="", ttl=600.0,
                           policy=STINGY) as running:
            greedy = ServiceClient(running.address, client_id="greedy")
            gentle = ServiceClient(running.address, client_id="gentle")
            fingerprint = greedy.register_spec(dict(TINY))
            greedy.figure(fingerprint, "fig8")  # drains greedy's bucket
            with pytest.raises(ClientThrottled) as info:
                greedy.figure(fingerprint, "fig6")
            assert info.value.status == 429
            assert info.value.retry_after >= 1
            # The throttled client still gets warm (cached) figures.
            _, state = greedy.figure_response(fingerprint, "fig8")
            assert state == "hit"
            # An innocent client's job completes meanwhile.
            job = gentle.submit_figure(fingerprint, "fig7")
            done = gentle.wait_job(job["job"])
            assert done["state"] == "done"
            clients = running.service.statsz()["clients"]
            assert clients["greedy"]["throttled"] == 1
            assert clients["gentle"]["throttled"] == 0

    def test_throttled_submit_creates_no_job(self):
        with start_service(cache_dir="", ttl=600.0,
                           policy=STINGY) as running:
            greedy = ServiceClient(running.address, client_id="greedy")
            fingerprint = greedy.register_spec(dict(TINY))
            greedy.figure(fingerprint, "fig8")
            with pytest.raises(ClientThrottled):
                greedy.submit_figure(fingerprint, "fig6")
            assert running.service.statsz()["jobs"]["total"] == 0

    def test_http_error_paths(self):
        with start_service(cache_dir="", ttl=600.0) as running:
            client = ServiceClient(running.address, client_id="alice")
            fingerprint = client.register_spec(dict(TINY))
            with pytest.raises(ServiceError) as info:
                client.figure("deadbeef", "fig8")
            assert info.value.status == 404
            with pytest.raises(ServiceError) as info:
                client.figure(fingerprint, "fig99")
            assert info.value.status == 400
            with pytest.raises(ServiceError) as info:
                client.job("j999")
            assert info.value.status == 404
            with pytest.raises(ServiceError) as info:
                client._request("GET", "/v2/everything")
            assert info.value.status == 404
            with pytest.raises(ServiceError) as info:
                client._request("POST", "/v1/figures", body={"figure": "fig8"})
            assert info.value.status == 400

    def test_toml_spec_registration(self):
        with start_service(cache_dir="", ttl=600.0) as running:
            request = urllib.request.Request(
                f"http://{running.address}/v1/specs",
                data=b'profile = "tiny"\n',
                headers={"Content-Type": "application/toml"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert response.status == 201
            json_client = ServiceClient(running.address)
            assert json_client.register_spec(dict(TINY)) == \
                payload["fingerprint"]

    def test_healthz(self):
        with start_service(cache_dir="", ttl=600.0) as running:
            client = ServiceClient(running.address)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["uptime_seconds"] >= 0.0

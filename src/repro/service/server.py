"""``repro.service`` — the always-on experiment server.

A stdlib-only daemon (:class:`http.server.ThreadingHTTPServer`, JSON
bodies) that owns one :class:`~repro.api.Session` per registered spec and
turns hot figure requests into dict lookups:

* ``POST /v1/specs`` — register an :class:`~repro.api.ExperimentSpec`
  (JSON body in the spec-file format; TOML accepted with a ``toml``
  content type).  Idempotent: returns the spec's session fingerprint.
* ``POST /v1/figures`` — ``{"fingerprint": ..., "figure": "fig8"}`` →
  a job id; the sweep executes through the session's futures and every
  completed grid handle bumps the job's progress.
* ``GET /v1/jobs/<id>`` — job state + per-point progress.
* ``GET /v1/figures/<fingerprint>/<id>`` — the aggregated figure dict.
  Served from the in-memory TTL cache when warm (the ``X-Repro-Cache``
  response header says ``hit``/``miss``); computed synchronously through
  the session otherwise.
* ``GET /healthz`` / ``GET /statsz`` — liveness and observability (TTL
  cache hit rate, per-client served/throttled counters, per-session
  :meth:`~repro.api.Session.stats` including the persistent run-cache
  counters and — on cluster sessions — the broker's scheduling stats).

Three layers keep a busy server responsive:

1. the **TTL figure cache** (:mod:`repro.service.cache`) in front of the
   persistent :class:`~repro.analysis.runcache.RunCache` — a warm figure
   never touches the executor;
2. **single-flight compute**: requests for one session serialise on its
   lock and re-check the TTL cache after acquiring it, so N concurrent
   requests for one cold figure cost exactly one sweep;
3. **client throttling** (:mod:`repro.service.quotas`) — the paper's
   BreakHammer mechanism applied to our own multi-tenant queue: clients
   are charged the cluster cost model's *predicted seconds* for work
   that actually needs the executor, and heavy hitters get ``429`` +
   ``Retry-After`` while light (and cached) traffic proceeds.

Start one with ``python -m repro.service --listen HOST:PORT`` or, from
code/tests, :func:`start_service`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.analysis.executor import (
    TASK_ALONE,
    TASK_RUN,
    RunTask,
    iter_completed,
)
from repro.analysis.experiments import FIGURES
from repro.api import Session, resolve_execution, spec_from_data
from repro.api.spec import ExperimentSpec, SpecFile
from repro.cluster.costs import CostModel
from repro.service.cache import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_TTL,
    TTLCache,
)
from repro.service.jobs import Job, JobRegistry
from repro.service.quotas import Decision, QuotaManager, QuotaPolicy

#: ``REPRO_SERVICE_*`` environment knobs (documented in ROADMAP.md).
TTL_ENV = "REPRO_SERVICE_TTL"
MAX_ENTRIES_ENV = "REPRO_SERVICE_MAX_ENTRIES"
MAX_SESSIONS_ENV = "REPRO_SERVICE_MAX_SESSIONS"

#: Most sessions a service hosts at once; each owns an executor + caches.
DEFAULT_MAX_SESSIONS = 8

#: Response header reporting whether the figure came from the TTL cache.
CACHE_STATE_HEADER = "X-Repro-Cache"

#: Request header naming the client for quota accounting; falls back to
#: the connection's remote address.
CLIENT_ID_HEADER = "X-Client-Id"


class ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message

    def headers(self) -> Dict[str, str]:
        return {}

    def payload(self) -> Dict[str, object]:
        return {"error": self.message}


class Throttled(ApiError):
    """429: the quota layer rejected the work (come back later)."""

    def __init__(self, decision: Decision) -> None:
        super().__init__(429, f"throttled: {decision.reason}")
        self.retry_after = max(1, int(decision.retry_after))

    def headers(self) -> Dict[str, str]:
        return {"Retry-After": str(self.retry_after)}

    def payload(self) -> Dict[str, object]:
        return {"error": self.message, "retry_after": self.retry_after}


def _env_positive_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {raw!r}")
    return value


def _env_positive_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {raw!r}")
    return value


@dataclass
class _SessionEntry:
    """One hosted session: the Session, its compute lock, its cost model."""

    session: Session
    costs: CostModel
    lock: threading.Lock
    source: Dict[str, object]
    registered: float


class ExperimentService:
    """The figure-serving application behind the HTTP handler.

    Owns the session table, the TTL figure cache, the quota manager, and
    the job registry; the HTTP layer is a thin JSON shim over the public
    methods here (which tests drive directly too).  Execution keywords
    (``jobs``/``engine``/``cache_dir``/``backend``/``broker``/
    ``workers``) apply to every session the service creates — the service
    owns *how* specs execute, clients only say *what* to compute.

    On ``backend="cluster"`` each session hosts its own broker; a fixed
    ``broker`` listen address is given to the first session only (later
    sessions take ephemeral ports — two brokers cannot share one socket).
    """

    def __init__(self, *,
                 jobs: Optional[int] = None,
                 engine: Optional[str] = None,
                 cache_dir: Optional[str] = None,
                 backend: Optional[str] = None,
                 broker: Optional[str] = None,
                 workers: Optional[int] = None,
                 ttl: Optional[float] = None,
                 max_entries: Optional[int] = None,
                 max_sessions: Optional[int] = None,
                 policy: Optional[QuotaPolicy] = None,
                 clock=time.monotonic) -> None:
        # Resolved once, so a bad engine, backend or worker count fails
        # here instead of inside the first POST /v1/specs handler.  An
        # explicit ``engine`` pins every session; otherwise each spec's
        # own engine wins over the environment's (``_plan.engine``).
        self._plan = resolve_execution(jobs=jobs, cache_dir=cache_dir,
                                       engine=engine, backend=backend)
        self._engine = engine
        self._workers = workers
        self._broker = broker
        self._broker_granted = False
        ttl = ttl if ttl is not None else _env_positive_float(
            TTL_ENV, DEFAULT_TTL)
        max_entries = max_entries if max_entries is not None else \
            _env_positive_int(MAX_ENTRIES_ENV, DEFAULT_MAX_ENTRIES)
        self.max_sessions = max_sessions if max_sessions is not None else \
            _env_positive_int(MAX_SESSIONS_ENV, DEFAULT_MAX_SESSIONS)
        self.figure_cache = TTLCache(ttl=ttl, max_entries=max_entries,
                                     clock=clock)
        self.quotas = QuotaManager(policy, clock=clock)
        self.jobs = JobRegistry()
        self._sessions: Dict[str, _SessionEntry] = {}
        self._sessions_lock = threading.Lock()
        self._started = time.time()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Spec registration and the session table
    # ------------------------------------------------------------------ #
    def register_spec_data(self, data: Dict[str, object],
                           source: str = "POST /v1/specs"
                           ) -> Tuple[str, bool]:
        """Register parsed spec data; returns (fingerprint, created).

        The body uses the spec-file format (``profile`` / ``[spec]`` /
        ``figures``); any ``[execution]`` table is ignored — execution
        belongs to the service, and honouring client-supplied worker
        counts would be a resource-exhaustion hole.
        """

        try:
            spec_file = spec_from_data(data, source)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc
        return self.register_spec(spec_file.spec)

    def register_spec(self, spec: ExperimentSpec) -> Tuple[str, bool]:
        """Host a session for ``spec``; idempotent per fingerprint."""

        plan = self._plan
        engine = self._engine or spec.engine or plan.engine
        # The spec fingerprint *is* the session fingerprint, so duplicate
        # registrations never build a second executor/broker just to
        # discover they are duplicates.
        fingerprint = spec.resolved(engine).fingerprint()
        with self._sessions_lock:
            if self._closed:
                raise ApiError(503, "service is shutting down")
            if fingerprint in self._sessions:
                return fingerprint, False
            if len(self._sessions) >= self.max_sessions:
                raise ApiError(
                    409,
                    f"session table full ({self.max_sessions} specs); "
                    "retire one or raise --max-sessions / "
                    f"{MAX_SESSIONS_ENV}",
                )
            broker = None
            if not self._broker_granted:
                broker = self._broker
                self._broker_granted = True
            # "" keeps a cache the plan disabled disabled.
            session = Session(spec, jobs=plan.jobs,
                              cache_dir=plan.cache_dir or "",
                              engine=engine,
                              backend=plan.backend,
                              broker=broker,
                              workers=self._workers)
            entry = _SessionEntry(
                session=session,
                # Predictions share the cluster scheduler's learned-cost
                # table when a persistent cache exists (load only — the
                # broker owns writes), so a service over a warm cache
                # starts with calibrated charges.
                costs=CostModel(session.spec,
                                path=(session.cache.directory / "costs.json"
                                      if session.cache is not None else None)),
                lock=threading.Lock(),
                source=spec.as_dict(),
                registered=time.time(),
            )
            self._sessions[session.fingerprint] = entry
            return session.fingerprint, True

    def _entry(self, fingerprint: str) -> _SessionEntry:
        with self._sessions_lock:
            entry = self._sessions.get(fingerprint)
        if entry is None:
            raise ApiError(
                404,
                f"unknown spec fingerprint {fingerprint!r}; register it "
                "with POST /v1/specs first",
            )
        return entry

    @staticmethod
    def _validate_figure(figure_id: str) -> None:
        if figure_id not in FIGURES:
            raise ApiError(
                400,
                f"unknown figure {figure_id!r}; one of {sorted(FIGURES)}",
            )

    # ------------------------------------------------------------------ #
    # Cost prediction (the quota layer's currency)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _plan_tasks(entry: _SessionEntry, figure_id: str) -> List[RunTask]:
        plan = entry.session.runner.figure_plan(figure_id)
        tasks: List[RunTask] = []
        for seed in plan.seeds:
            for mix, mechanism, nrh, breakhammer in plan.runs:
                tasks.append(RunTask(kind=TASK_RUN, mix_name=mix, seed=seed,
                                     mechanism=mechanism, nrh=nrh,
                                     breakhammer=breakhammer))
            for mix in plan.alone_mixes:
                # One standalone-IPC baseline per trace (= per mix letter).
                for index in range(len(mix)):
                    tasks.append(RunTask(kind=TASK_ALONE, mix_name=mix,
                                         seed=seed, trace_index=index))
        return tasks

    def predicted_cost(self, fingerprint: str, figure_id: str) -> float:
        """Predicted executor seconds of one figure's full sweep plan."""

        entry = self._entry(fingerprint)
        self._validate_figure(figure_id)
        return sum(entry.costs.predict(task)
                   for task in self._plan_tasks(entry, figure_id))

    # ------------------------------------------------------------------ #
    # Figures
    # ------------------------------------------------------------------ #
    def figure(self, fingerprint: str, figure_id: str,
               client: str) -> Tuple[Dict[str, object], str]:
        """The aggregated figure dict and its cache state (hit/miss).

        Warm requests (TTL hit) bypass quota admission entirely — a dict
        lookup is exactly the traffic the throttling exists to protect.
        Cold requests are admitted at the plan's predicted cost, compute
        single-flight under the session lock, and refund the share of the
        charge that the persistent run cache made unnecessary.
        """

        entry = self._entry(fingerprint)
        self._validate_figure(figure_id)
        key = (fingerprint, figure_id)
        value = self.figure_cache.get(key)
        if value is not None:
            self.quotas.note_served(client, cached=True)
            return value, "hit"
        cost = sum(entry.costs.predict(task)
                   for task in self._plan_tasks(entry, figure_id))
        decision = self.quotas.admit(client, cost)
        if not decision.allowed:
            raise Throttled(decision)
        try:
            with entry.lock:
                value = self.figure_cache.get(key)
                if value is not None:
                    # Another request computed it while we queued: the
                    # admitted work never ran, so the charge comes back.
                    self.quotas.release(client, refund=decision.charged)
                    self.quotas.note_served(client, cached=True)
                    return value, "hit"
                data, total, executed = self._compute(entry, figure_id)
                self.figure_cache.put(key, data)
        except ApiError:
            self.quotas.release(client, refund=decision.charged)
            raise
        except Exception as exc:
            self.quotas.release(client, refund=decision.charged)
            raise ApiError(
                500, f"figure {figure_id} failed: {exc}") from exc
        self.quotas.release(
            client, refund=self._refund(decision, total, executed))
        self.quotas.note_served(client, cached=False)
        return data, "miss"

    @staticmethod
    def _refund(decision: Decision, total: int, executed: int) -> float:
        """The unexecuted share of an admission charge.

        A sweep whose points were all warm in the persistent
        :class:`RunCache` executed nothing: the client is scored on work
        the executor actually did, not on what it might have cost.
        """

        if total <= 0:
            return 0.0
        unexecuted = 1.0 - min(1.0, executed / total)
        return decision.charged * unexecuted

    @staticmethod
    def _compute(entry: _SessionEntry, figure_id: str,
                 job: Optional[Job] = None
                 ) -> Tuple[Dict[str, object], int, int]:
        """Execute one figure through the session's futures.

        Returns ``(figure dict, total points, points actually executed)``.
        Must be called with ``entry.lock`` held — sessions (and the
        runner beneath them) are not safe for concurrent sweeps.
        """

        session = entry.session
        runner = session.runner
        before = session.runs_executed
        plan = runner.figure_plan(figure_id)
        handles = runner.submit_plan(plan)
        if job is not None:
            job.set_total(len(handles))
        for handle in iter_completed(handles):
            handle.result()
            if job is not None:
                job.bump()
        figure = runner.fold(plan)
        executed = session.runs_executed - before
        return figure.as_dict(), len(handles), executed

    # ------------------------------------------------------------------ #
    # Jobs
    # ------------------------------------------------------------------ #
    def submit_figure(self, fingerprint: str, figure_id: str,
                      client: str) -> Dict[str, object]:
        """Admit and start one asynchronous figure job; returns its dict."""

        entry = self._entry(fingerprint)
        self._validate_figure(figure_id)
        key = (fingerprint, figure_id)
        if self.figure_cache.get(key) is not None:
            # Warm: the job is born done — no admission, no thread.
            job = self.jobs.create(client, fingerprint, figure_id)
            job.finish(cached=True)
            self.quotas.note_served(client, cached=True)
            return job.as_dict()
        cost = sum(entry.costs.predict(task)
                   for task in self._plan_tasks(entry, figure_id))
        decision = self.quotas.admit(client, cost)
        if not decision.allowed:
            raise Throttled(decision)
        job = self.jobs.create(client, fingerprint, figure_id)
        thread = threading.Thread(
            target=self._run_job, args=(entry, job, decision),
            name=f"repro-service-{job.job_id}", daemon=True,
        )
        thread.start()
        return job.as_dict()

    def _run_job(self, entry: _SessionEntry, job: Job,
                 decision: Decision) -> None:
        key = (job.fingerprint, job.figure_id)
        try:
            with entry.lock:
                job.start()
                value = self.figure_cache.get(key)
                if value is not None:
                    self.quotas.release(job.client, refund=decision.charged)
                    self.quotas.note_served(job.client, cached=True)
                    job.finish(cached=True)
                    return
                data, total, executed = self._compute(entry, job.figure_id,
                                                      job)
                self.figure_cache.put(key, data)
            self.quotas.release(
                job.client, refund=self._refund(decision, total, executed))
            self.quotas.note_served(job.client, cached=False)
            job.finish(executed=executed)
        except Exception as exc:  # noqa: BLE001 - job boundary
            self.quotas.release(job.client, refund=decision.charged)
            job.fail(f"{type(exc).__name__}: {exc}")

    def job(self, job_id: str) -> Dict[str, object]:
        job = self.jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"unknown job {job_id!r}")
        return job.as_dict()

    # ------------------------------------------------------------------ #
    # Health and observability
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, object]:
        with self._sessions_lock:
            sessions = len(self._sessions)
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self._started, 3),
            "sessions": sessions,
            "jobs": len(self.jobs),
        }

    def statsz(self) -> Dict[str, object]:
        with self._sessions_lock:
            entries = dict(self._sessions)
        sessions: Dict[str, object] = {}
        for fingerprint, entry in entries.items():
            stats = entry.session.stats()
            stats["cost_model_size"] = len(entry.costs)
            sessions[fingerprint] = stats
        return {
            "uptime_seconds": round(time.time() - self._started, 3),
            "figure_cache": self.figure_cache.stats(),
            "clients": self.quotas.stats(),
            "jobs": self.jobs.stats(),
            "sessions": sessions,
        }

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._sessions_lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._sessions.values())
            self._sessions.clear()
        for entry in entries:
            # Let an in-flight sweep finish before tearing its pool down.
            with entry.lock:
                entry.session.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# The HTTP shim
# ---------------------------------------------------------------------- #
class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the JSON surface onto :class:`ExperimentService` methods."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    def _client_id(self) -> str:
        header = (self.headers.get(CLIENT_ID_HEADER) or "").strip()
        return header or self.client_address[0]

    def _send(self, status: int, payload: Dict[str, object],
              headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length > 0 else b""

    def _json_body(self) -> Dict[str, object]:
        raw = self._read_body()
        if not raw:
            raise ApiError(400, "request body required")
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ApiError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ApiError(400, "body must be a JSON object")
        return data

    def _spec_body(self) -> Dict[str, object]:
        content_type = (self.headers.get("Content-Type") or "").lower()
        if "toml" not in content_type:
            return self._json_body()
        import tomllib

        raw = self._read_body()
        if not raw:
            raise ApiError(400, "request body required")
        try:
            return tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise ApiError(400, f"body is not valid TOML: {exc}") from exc

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/healthz":
                self._send(200, self.service.healthz())
                return
            if path == "/statsz":
                self._send(200, self.service.statsz())
                return
            parts = [p for p in path.split("/") if p]
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send(200, self.service.job(parts[2]))
                return
            if len(parts) == 4 and parts[:2] == ["v1", "figures"]:
                data, state = self.service.figure(parts[2], parts[3],
                                                  self._client_id())
                self._send(200, data, headers={CACHE_STATE_HEADER: state})
                return
            raise ApiError(404, f"no such resource: {self.path}")
        except ApiError as exc:
            self._send(exc.status, exc.payload(), headers=exc.headers())

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/v1/specs":
                fingerprint, created = self.service.register_spec_data(
                    self._spec_body())
                self._send(201 if created else 200, {
                    "fingerprint": fingerprint,
                    "created": created,
                })
                return
            if path == "/v1/figures":
                body = self._json_body()
                fingerprint = body.get("fingerprint")
                figure_id = body.get("figure")
                if not isinstance(fingerprint, str) or not fingerprint:
                    raise ApiError(400, "'fingerprint' (string) required")
                if not isinstance(figure_id, str) or not figure_id:
                    raise ApiError(400, "'figure' (string) required")
                job = self.service.submit_figure(fingerprint, figure_id,
                                                 self._client_id())
                self._send(202, job)
                return
            raise ApiError(404, f"no such resource: {self.path}")
        except ApiError as exc:
            self._send(exc.status, exc.payload(), headers=exc.headers())


# ---------------------------------------------------------------------- #
# Embedding helpers (tests, examples, the CLI)
# ---------------------------------------------------------------------- #
def parse_listen(listen: str) -> Tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; port 0 asks for an ephemeral one."""

    host, sep, port = listen.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"listen address must be HOST:PORT, got {listen!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"listen address must be HOST:PORT, got {listen!r}"
        ) from None


def make_server(service: ExperimentService,
                listen: str = "127.0.0.1:0") -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``listen`` (not yet running)."""

    host, port = parse_listen(listen)
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = False  # type: ignore[attr-defined]
    return server


@dataclass
class RunningService:
    """A service + HTTP server pair running on a background thread."""

    service: ExperimentService
    server: ThreadingHTTPServer
    thread: threading.Thread

    @property
    def address(self) -> str:
        host, port = self.server.server_address[:2]
        return f"{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.thread.join(timeout=10.0)

    def __enter__(self) -> "RunningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_service(listen: str = "127.0.0.1:0",
                  service: Optional[ExperimentService] = None,
                  **service_kwargs) -> RunningService:
    """Build (or adopt) a service and serve it on a daemon thread.

    The embedding entry point used by tests, benchmarks, and
    ``examples/experiment_service.py``; the blocking CLI equivalent is
    ``python -m repro.service``.
    """

    owned = service is None
    if service is None:
        service = ExperimentService(**service_kwargs)
    elif service_kwargs:
        raise ValueError("pass service_kwargs or an existing service, "
                         "not both")
    try:
        server = make_server(service, listen)
    except BaseException:
        if owned:
            service.close()
        raise
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-service-http", daemon=True)
    thread.start()
    return RunningService(service=service, server=server, thread=thread)

"""The broker: owns a spec's work queue and a fleet of socket workers.

A :class:`ClusterBroker` listens on a TCP or Unix endpoint, hands each
connecting worker the resolved :class:`~repro.api.ExperimentSpec` and the
worker-side :class:`~repro.api.ExecutionPlan` (plus the spec fingerprint
all work is addressed by), and then feeds it grid points by *claims*.
Fault tolerance is structural:

* **worker death / disconnect** — the points that worker had in flight
  are requeued (solo — never re-chunked) and handed to the next free
  worker; the sweep's result cannot change, only its wall-clock.  A point
  requeued more than ``max_requeues`` times (default 3 — every worker
  that claimed it died) is treated as poison: its future fails with a
  diagnostic naming the task and the workers it killed, instead of being
  requeued forever;
* **stale workers** — a worker announcing (or computing) a fingerprint
  other than the broker's is rejected at handshake, before any work is
  dispatched;
* **corrupt frames** — a truncated or bit-flipped frame fails the CRC
  check (:class:`~repro.cluster.protocol.FrameError`), the connection is
  dropped, and the in-flight points are requeued;
* **resumption** — every result is written through the broker's shared
  persistent :class:`~repro.analysis.runcache.RunCache` as it arrives, so
  a broker restarted over the same cache directory skips completed points
  (they come back as cache hits before ever reaching the queue).

Scheduling is cost-aware (the tentpole of the paper's own argument —
throttle by *observed cost*): a :class:`~repro.cluster.costs.CostModel`
predicts seconds per task, the queue is a cost-ordered priority queue
dispatching longest-job-first, and points predicted under a cheapness
threshold are handed out several per ``work`` frame so per-frame
round-trips stop dominating tiny fast-engine points.  Observed ``elapsed``
seconds stream back in every ``result`` frame and refine the model online;
the learned table persists next to the run cache.  ``scheduling="fifo"``
(or ``REPRO_CLUSTER_SCHED=fifo``) restores blind one-at-a-time dispatch
for comparison — ordering is a wall-clock choice, never a correctness
one, so both modes produce bit-identical figures.
"""

from __future__ import annotations

import heapq
import os
import socket
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional

from repro.analysis.runcache import RunCache
from repro.cluster import protocol
from repro.cluster.costs import CostModel, describe_task
from repro.cluster.protocol import (
    Address,
    ConnectionClosed,
    FrameError,
    ProtocolError,
)

#: Scheduling-policy knobs (constructor arguments beat the environment).
SCHED_ENV = "REPRO_CLUSTER_SCHED"            # "cost" (default) | "fifo"
CHEAP_SECONDS_ENV = "REPRO_CLUSTER_CHEAP_SECONDS"
CHUNK_ENV = "REPRO_CLUSTER_CHUNK"
MAX_REQUEUES_ENV = "REPRO_CLUSTER_MAX_REQUEUES"

#: Defaults: points predicted under ``DEFAULT_CHEAP_SECONDS`` are handed
#: out up to ``DEFAULT_CHUNK`` per claim; anything above dispatches solo.
DEFAULT_CHEAP_SECONDS = 0.75
DEFAULT_CHUNK = 4
DEFAULT_MAX_REQUEUES = 3


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


class ClusterTaskError(RuntimeError):
    """A worker reported a clean (deterministic) failure for one task."""


class _Entry:
    """Book-keeping of one submitted task."""

    __slots__ = ("task", "future", "requeues", "cost", "solo", "killed_by")

    def __init__(self, task, cost: float) -> None:
        self.task = task
        self.future: Future = Future()
        self.requeues = 0
        self.cost = cost
        self.solo = False          # requeued tasks are never re-chunked
        self.killed_by: List[str] = []


class _CostQueue:
    """A cost-ordered priority queue with chunked claims for cheap tasks.

    ``claim`` pops the most expensive pending task first (longest-job-first
    keeps the stragglers off the critical path); when the head is below the
    cheapness threshold, up to ``max_chunk`` equally-cheap non-solo tasks
    ride along in the same claim.  ``fifo=True`` degrades to submission
    order with no chunking (the comparison baseline).
    """

    def __init__(self, fifo: bool = False) -> None:
        self._heap: List[tuple] = []
        self._cond = threading.Condition()
        self._seq = 0
        self._fifo = fifo

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def put(self, task, cost: float, solo: bool = False) -> None:
        with self._cond:
            self._seq += 1
            priority = 0.0 if self._fifo else -cost
            heapq.heappush(self._heap, (priority, self._seq, task, solo))
            self._cond.notify()

    def claim(self, max_chunk: int, cheap_seconds: float,
              timeout: float) -> List[object]:
        """Pop one claim: ``[]`` when nothing arrived within ``timeout``."""

        with self._cond:
            if not self._heap:
                self._cond.wait(timeout)
            if not self._heap:
                return []
            priority, _seq, task, solo = heapq.heappop(self._heap)
            claimed = [task]
            if self._fifo or solo or -priority >= cheap_seconds:
                return claimed
            while self._heap and len(claimed) < max_chunk:
                head_priority, _s, head_task, head_solo = self._heap[0]
                if head_solo or -head_priority >= cheap_seconds:
                    break
                heapq.heappop(self._heap)
                claimed.append(head_task)
            return claimed


class ClusterBroker:
    """Work queue + worker fleet for one experiment spec.

    ``spec`` (engine resolved) and ``worker_execution`` are what every
    worker builds its runner from — the caller pins ``jobs=1``/
    ``backend="local"`` and disables the worker disk cache (the broker
    owns persistence).  ``cache`` is the broker's shared :class:`RunCache`
    (or ``None``); results are written through it as they stream in, and
    the learned cost table persists beside them.
    """

    def __init__(self, spec, worker_execution,
                 address: Optional[Address] = None,
                 cache: Optional[RunCache] = None,
                 scheduling: Optional[str] = None,
                 cheap_seconds: Optional[float] = None,
                 chunk_size: Optional[int] = None,
                 max_requeues: Optional[int] = None) -> None:
        self.spec = spec
        self.worker_execution = worker_execution
        self.fingerprint = spec.fingerprint(worker_execution.workload_dir)
        self.cache = cache
        self.scheduling = (scheduling
                           or os.environ.get(SCHED_ENV, "").strip().lower()
                           or "cost")
        if self.scheduling not in ("cost", "fifo"):
            raise ValueError(
                f"unknown cluster scheduling {self.scheduling!r} "
                "(expected 'cost' or 'fifo')"
            )
        self.cheap_seconds = (cheap_seconds if cheap_seconds is not None
                              else _env_float(CHEAP_SECONDS_ENV,
                                              DEFAULT_CHEAP_SECONDS))
        self.chunk_size = max(1, chunk_size if chunk_size is not None
                              else _env_int(CHUNK_ENV, DEFAULT_CHUNK))
        self.max_requeues = max(0, max_requeues if max_requeues is not None
                                else _env_int(MAX_REQUEUES_ENV,
                                              DEFAULT_MAX_REQUEUES))
        self.cost_model = CostModel.for_cache(spec, cache)
        self._queue = _CostQueue(fifo=self.scheduling == "fifo")
        self._entries: Dict[object, _Entry] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._connections: List[socket.socket] = []
        self._release_requests = 0
        self._worker_seq = 0
        self._listener, self.address = protocol.bind_listener(
            address or Address(kind="tcp", host="127.0.0.1", port=0)
        )
        # Observable state (written under _lock; unlocked reads are fine
        # for polling).
        self.workers_connected = 0
        self.fabric_error: Optional[str] = None
        self.workers_seen = 0
        self.workers_rejected = 0
        self.requeued_points = 0
        self.corrupt_frames = 0
        self.results_received = 0
        self.scheduled_by_cost = 0
        self.chunked_claims = 0
        self.autoscale_events = 0
        self.worker_stats: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterBroker":
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-cluster-accept", daemon=True)
        accept.start()
        with self._lock:
            self._threads.append(accept)
        return self

    def stop(self) -> None:
        """Stop accepting, release workers, fail anything still pending."""

        if self._stop.is_set():
            return
        self._stop.set()
        # close() alone leaves the accept thread blocked in accept() until
        # the join below times out; shutdown() wakes it immediately.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self.address.kind == "unix":
            try:
                os.unlink(self.address.path)
            except OSError:
                pass
        with self._lock:
            pending = [entry for entry in self._entries.values()
                       if not entry.future.done()]
            connections = list(self._connections)
            threads = list(self._threads)
        for entry in pending:
            entry.future.set_exception(RuntimeError(
                "cluster broker stopped with the point still pending"
            ))
        # Unblock handler threads parked in recv; workers observe the
        # dropped connection (or an explicit shutdown frame) and exit.
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5.0)
        self.cost_model.save()

    @property
    def worker_count(self) -> int:
        """Workers that completed the handshake and are serving work."""

        return self.workers_connected

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` workers are connected (tests and CLIs)."""

        deadline = time.monotonic() + timeout
        while self.workers_connected < count:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"only {self.workers_connected}/{count} workers "
                    f"connected to {self.address} within {timeout:.0f}s "
                    f"({self.workers_rejected} rejected)"
                )
            time.sleep(0.02)

    # ------------------------------------------------------------------ #
    # Submission and introspection
    # ------------------------------------------------------------------ #
    def submit(self, task) -> Future:
        """Enqueue one task; duplicate submissions share one future."""

        if self._stop.is_set():
            raise RuntimeError("cannot submit to a stopped cluster broker")
        cost = self.cost_model.predict(task)
        with self._lock:
            # Checked under the lock against fail_pending(): a task either
            # observes the dead fabric here, or is registered before the
            # pending snapshot is taken — it can never fall between.
            if self.fabric_error is not None:
                raise RuntimeError(self.fabric_error)
            entry = self._entries.get(task)
            if entry is None:
                entry = _Entry(task, cost)
                self._entries[task] = entry
                self._queue.put(task, cost=cost)
        return entry.future

    def queue_depth(self) -> int:
        """Tasks enqueued but not yet claimed by any worker."""

        return len(self._queue)

    def pending_count(self) -> int:
        """Submitted tasks whose futures are not resolved yet."""

        with self._lock:
            return sum(1 for entry in self._entries.values()
                       if not entry.future.done())

    def release_idle(self, count: int) -> None:
        """Ask up to ``count`` idle workers to shut down (autoscaler)."""

        if count <= 0:
            return
        with self._lock:
            self._release_requests += count

    def note_autoscale(self) -> None:
        """Record one fleet scale event (spawn batch or idle reap)."""

        with self._lock:
            self.autoscale_events += 1

    def stats(self) -> Dict[str, object]:
        """A snapshot of scheduling/elasticity counters (picklable)."""

        with self._lock:
            workers = {wid: dict(per) for wid, per in
                       self.worker_stats.items()}
            snapshot = {
                "scheduling": self.scheduling,
                "scheduled_by_cost": self.scheduled_by_cost,
                "chunked_claims": self.chunked_claims,
                "autoscale_events": self.autoscale_events,
                "results_received": self.results_received,
                "requeued_points": self.requeued_points,
                "corrupt_frames": self.corrupt_frames,
                "workers_seen": self.workers_seen,
                "workers_connected": self.workers_connected,
                "workers_rejected": self.workers_rejected,
                "workers": workers,
            }
        snapshot["queue_depth"] = self.queue_depth()
        snapshot["pending_points"] = self.pending_count()
        snapshot["cost_model"] = {
            "learned_keys": len(self.cost_model),
            "observations": self.cost_model.observations,
            "path": (str(self.cost_model.path)
                     if self.cost_model.path is not None else None),
        }
        return snapshot

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            handler = threading.Thread(target=self._serve_worker,
                                       args=(sock,),
                                       name="repro-cluster-worker",
                                       daemon=True)
            with self._lock:
                self._connections.append(sock)
                self.workers_seen += 1
                # Long-lived brokers see many worker generations: prune
                # finished handler threads instead of accumulating them.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(handler)
            handler.start()

    def _reject(self, sock: socket.socket, reason: str) -> None:
        with self._lock:
            self.workers_rejected += 1
        try:
            protocol.send_message(sock, protocol.REJECT, reason=reason)
        except OSError:
            pass

    def _handshake(self, sock: socket.socket) -> bool:
        """Run the hello/config/ready exchange; ``True`` when serviceable."""

        kind, payload = protocol.recv_message(sock)
        if kind != protocol.HELLO:
            raise FrameError(f"expected hello, got {kind!r}")
        if payload.get("version") != protocol.PROTOCOL_VERSION:
            self._reject(sock, (
                f"protocol version {payload.get('version')!r} != "
                f"{protocol.PROTOCOL_VERSION}"
            ))
            return False
        announced = payload.get("fingerprint")
        if announced is not None and announced != self.fingerprint:
            self._reject(sock, (
                f"stale spec: worker fingerprint {announced} != broker "
                f"fingerprint {self.fingerprint}"
            ))
            return False
        protocol.send_message(sock, protocol.CONFIG, spec=self.spec,
                              execution=self.worker_execution,
                              fingerprint=self.fingerprint)
        kind, payload = protocol.recv_message(sock)
        if kind != protocol.READY:
            raise FrameError(f"expected ready, got {kind!r}")
        if payload.get("fingerprint") != self.fingerprint:
            # The worker rebuilt the spec into a different fingerprint —
            # an environment/version skew that would corrupt results.
            self._reject(sock, (
                f"fingerprint skew: worker built {payload.get('fingerprint')}"
                f" from a spec fingerprinting {self.fingerprint} here"
            ))
            return False
        return True

    def _serve_worker(self, sock: socket.socket) -> None:
        in_flight: List[object] = []
        worker_id: Optional[str] = None
        try:
            if not self._handshake(sock):
                return
            with self._lock:
                self._worker_seq += 1
                worker_id = f"worker-{self._worker_seq}"
                self.workers_connected += 1
                self.worker_stats[worker_id] = {"served": 0, "elapsed": 0.0}
            while True:
                tasks = self._claim(sock)
                if tasks is None:
                    return  # shutdown sent
                in_flight = list(tasks)
                protocol.send_message(sock, protocol.WORK, tasks=tasks,
                                      fingerprint=self.fingerprint)
                for task in tasks:
                    kind, payload = protocol.recv_message(sock)
                    if (kind == protocol.RESULT
                            and payload.get("task") == task):
                        self._resolve(task, payload, worker_id)
                    elif (kind == protocol.ERROR
                            and payload.get("task") == task):
                        self._fail(task,
                                   payload.get("message", "worker error"))
                    else:
                        raise FrameError(
                            f"expected a result for {task!r}, got {kind!r}"
                        )
                    in_flight.remove(task)
        except FrameError:
            with self._lock:
                self.corrupt_frames += 1
        except (ConnectionClosed, ProtocolError, OSError):
            pass
        finally:
            if worker_id is not None:
                with self._lock:
                    self.workers_connected -= 1
            for task in in_flight:
                self._requeue(task, worker_id)
            try:
                sock.close()
            except OSError:
                pass

    def _claim(self, sock: socket.socket) -> Optional[List[object]]:
        """Claim the next dispatch for one worker, or send shutdown."""

        while True:
            tasks = self._queue.claim(self.chunk_size, self.cheap_seconds,
                                      timeout=0.1)
            if tasks:
                with self._lock:
                    if self.scheduling == "cost":
                        self.scheduled_by_cost += len(tasks)
                    if len(tasks) > 1:
                        self.chunked_claims += 1
                return tasks
            if self._stop.is_set() or self._take_release():
                try:
                    protocol.send_message(sock, protocol.SHUTDOWN)
                except OSError:
                    pass
                return None

    def _take_release(self) -> bool:
        """Consume one pending idle-release request (autoscaler reap)."""

        with self._lock:
            if self._release_requests > 0:
                self._release_requests -= 1
                return True
        return False

    # ------------------------------------------------------------------ #
    # Outcome plumbing
    # ------------------------------------------------------------------ #
    def _entry(self, task) -> Optional[_Entry]:
        with self._lock:
            return self._entries.get(task)

    def _resolve(self, task, payload: dict,
                 worker_id: Optional[str] = None) -> None:
        if self.cache is not None:
            for key, stats in payload.get("entries", ()):
                self.cache.put(key, stats)
        elapsed = payload.get("elapsed")
        self.cost_model.observe(task, elapsed)
        with self._lock:
            self.results_received += 1
            per_worker = self.worker_stats.get(worker_id)
            if per_worker is not None:
                per_worker["served"] += 1
                if elapsed is not None and elapsed > 0.0:
                    per_worker["elapsed"] += float(elapsed)
        entry = self._entry(task)
        if entry is not None and not entry.future.done():
            entry.future.set_result(payload.get("outcome"))

    def fail_pending(self, message: str) -> None:
        """Fail every unresolved future (the fabric is known dead).

        Called by the executor's autoscaler when every spawned worker
        process has exited without making progress: blocking on the queue
        would otherwise hang forever.  Later submissions fail fast too.
        """

        with self._lock:
            self.fabric_error = message
            pending = [entry for entry in self._entries.values()
                       if not entry.future.done()]
        for entry in pending:
            entry.future.set_exception(RuntimeError(message))

    def _fail(self, task, message: str) -> None:
        entry = self._entry(task)
        if entry is not None and not entry.future.done():
            entry.future.set_exception(ClusterTaskError(message))

    def _requeue(self, task, worker_id: Optional[str] = None) -> None:
        if self._stop.is_set():
            return
        with self._lock:
            entry = self._entries.get(task)
            if entry is None or entry.future.done():
                return
            entry.requeues += 1
            entry.solo = True
            if worker_id is not None:
                entry.killed_by.append(worker_id)
            self.requeued_points += 1
            exceeded = entry.requeues > self.max_requeues
            killers = ", ".join(entry.killed_by) or "unknown"
            requeues = entry.requeues
        if exceeded:
            # Poison point: every worker that claimed it died.  Failing
            # the future (with the evidence) beats requeueing forever.
            entry.future.set_exception(ClusterTaskError(
                f"{describe_task(task)} exceeded the requeue bound: "
                f"{requeues} worker connection(s) were lost while it was "
                f"in flight (workers: {killers}; bound "
                f"max_requeues={self.max_requeues}) — the point looks "
                "poisonous and is failed instead of requeued again"
            ))
            return
        # Requeued points dispatch solo: an innocent chunk-mate of a
        # poison task must not ride along with it (and toward the requeue
        # bound) a second time.
        self._queue.put(task, cost=entry.cost, solo=True)

"""The HTTP load: one process, two closed-loop ``ServiceClient`` threads.

``rep.py`` starts this script with a JSON job on standard input
(``address``, ``fingerprint``, ``figures``, ``expected`` digests per
figure, ``requests_per_client``, the ``cpu`` to pin to or null) so the
clients do not share an interpreter lock, nor a CPU, with the service
they measure.  One client first GETs
every figure once; each is a TTL miss the service serves from the
RunCache.  Then two clients issue ``requests_per_client`` GETs each, all
TTL hits.  Every response is checked against the expected digest.  The
result is one JSON object on standard output.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.client import ServiceError, Throttled  # noqa: E402


def main():
    job = json.load(sys.stdin)
    if job["cpu"] is not None:
        # Off the service's CPU, whose speed the service's time is
        # normalised by.
        os.sched_setaffinity(0, {job["cpu"]})
    figures = job["figures"]
    lock = threading.Lock()
    outcome = {"attempted": 0, "hits": 0, "misses": 0, "throttled": 0,
               "errors": []}

    def get(client, figure_id):
        started = time.perf_counter()
        try:
            payload, state = client.figure_response(job["fingerprint"],
                                                    figure_id)
            error = None
            if oracle.digest(payload) != job["expected"][figure_id]:
                error = f"GET {figure_id}: digest differs from the session"
        except Throttled as exc:
            state, error = "throttled", f"GET {figure_id}: 429 {exc}"
        except (ServiceError, OSError) as exc:
            state, error = "error", f"GET {figure_id}: {exc}"
        latency = (time.perf_counter() - started) * 1e3
        with lock:
            outcome["attempted"] += 1
            outcome["hits"] += state == "hit"
            outcome["misses"] += state == "miss"
            outcome["throttled"] += state == "throttled"
            if error:
                outcome["errors"].append(error)
        return latency

    first = ServiceClient(job["address"], client_id="perfbench-0")
    outcome["miss_ms"] = [get(first, figure_id) for figure_id in figures]
    latencies = [[], []]

    def client_loop(index):
        client = ServiceClient(job["address"], client_id=f"perfbench-{index}")
        for request in range(job["requests_per_client"]):
            figure_id = figures[(request + index) % len(figures)]
            latencies[index].append(get(client, figure_id))

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome["wall_s"] = time.perf_counter() - started
    outcome["latencies_ms"] = latencies[0] + latencies[1]
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

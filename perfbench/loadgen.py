"""Open-loop HTTP load generator for the ``damage_service`` workload.

A scheduler thread releases each request at its due time onto a queue;
``connections`` threads, each holding one keep-alive connection, take
requests off the queue and send them.  Every request is timed from its
due time, so a stall shows as latency on the requests queued behind it
instead of silently lowering the offered rate (the closed-loop error).

Per request the generator records when it was due, sent and answered,
and whether it failed: a non-2xx status, a timeout, a connection error
or a reply that differs from the expected damage vector.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from typing import Dict, List, Optional, Sequence


class Request:
    __slots__ = ("due", "body", "expected", "sent", "done", "error")

    def __init__(self, due: float, body: bytes, expected: List[float]):
        self.due = due
        self.body = body
        self.expected = expected
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.error: Optional[str] = None


def post_json(
    conn: http.client.HTTPConnection, path: str, body: bytes
) -> Dict:
    """POST ``body`` on a keep-alive connection; raise on non-2xx."""
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    payload = response.read()
    if not 200 <= response.status < 300:
        raise RuntimeError(f"HTTP {response.status}: {payload[:200]!r}")
    return json.loads(payload)


def get_text(host: str, port: int, path: str, timeout: float = 10.0) -> str:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return payload.decode()
    finally:
        conn.close()


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int = 2,
    timeout: float = 10.0,
) -> Dict[str, float]:
    """Send ``requests`` (due times relative to the start) and fill in
    their timings.  Returns the scheduler's worst lateness in seconds
    and the start time on the ``perf_counter`` clock."""
    ready: "queue.Queue[Optional[Request]]" = queue.Queue()
    lag = [0.0]

    def sender() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                request = ready.get()
                if request is None:
                    return
                request.sent = time.perf_counter()
                try:
                    damages = post_json(conn, "/damage", request.body)[
                        "damages"
                    ]
                    if damages != request.expected:
                        request.error = "mismatch"
                except Exception as exc:  # every failure is counted
                    request.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                request.done = time.perf_counter()
        finally:
            conn.close()

    threads = [
        threading.Thread(target=sender, name=f"loadgen-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    for request in requests:
        request.due += start
        delay = request.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lag[0] = max(lag[0], time.perf_counter() - request.due)
        ready.put(request)
    for _ in threads:
        ready.put(None)
    for thread in threads:
        thread.join(timeout + 30.0)
        if thread.is_alive():
            raise RuntimeError("load generator connection did not finish")
    return {"lag": lag[0], "start": start}

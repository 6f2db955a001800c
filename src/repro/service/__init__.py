"""`repro.service` — the batching analysis server (registry, queue, batching).

The long-lived counterpart of the one-shot CLI: networks are uploaded
and interned once (:mod:`registry`), heavy analyses run as tracked jobs
on a worker pool (:mod:`jobs`), concurrent fault queries are coalesced
into shared bitset-kernel passes (:mod:`batching`) and executed on a
sharded pool of worker *processes* keyed by IR fingerprint
(:mod:`workers` — shared-memory kernel shipping, consistent-hash
rebalance on crash), and everything is observable over
Prometheus-format metrics (:mod:`metrics`).  :mod:`server` holds the
:class:`AnalysisService` facade; the event-loop HTTP front-end of
:mod:`aserver` sits on top.  Both are stdlib-only, as is the retrying
:mod:`client`.

Start it with ``repro-rsn serve``; drive it with ``repro-rsn submit``,
:class:`ServiceClient`, or plain ``curl``.
"""

from .aserver import AsyncServerThread, AsyncServiceServer, serve_async
from .batching import BatchCoalescer
from .client import ServiceClient, ServiceClientError
from .jobs import Job, JobQueue, JobStatus, TransientJobError
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .registry import NetworkRegistry, RegisteredNetwork, RegistryError
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    AnalysisService,
    NotFoundError,
)
from .workers import (
    PoolClosedError,
    ShardMap,
    WorkerCrashError,
    WorkerPool,
)

__all__ = [
    "AnalysisService",
    "AsyncServerThread",
    "AsyncServiceServer",
    "BatchCoalescer",
    "Counter",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Gauge",
    "Histogram",
    "Job",
    "JobQueue",
    "JobStatus",
    "MetricsRegistry",
    "NetworkRegistry",
    "NotFoundError",
    "PoolClosedError",
    "RegisteredNetwork",
    "RegistryError",
    "ServiceClient",
    "ServiceClientError",
    "ShardMap",
    "TransientJobError",
    "WorkerCrashError",
    "WorkerPool",
    "serve_async",
]

"""Cached criticality engine — the service-grade analysis path.

:class:`CriticalityEngine` wraps the per-fault damage evaluation of
:mod:`repro.analysis.damage` into a reusable substrate:

* **persistent result cache** — a completed report is stored on disk
  keyed by a content fingerprint of (compiled-IR fingerprint,
  specification, method, policy, damage sites,
  :data:`ANALYSIS_VERSION`), so repeated
  ``cli analyze`` / ``cli table1`` runs and EA re-evaluations of the same
  problem skip the analysis entirely.  Any change to the network or spec
  changes the fingerprint and invalidates the entry; changes to the
  analysis algorithms must bump :data:`ANALYSIS_VERSION`.
* **instrumentation** — an :class:`EngineStats` record (faults/s, cache
  outcome, memoization and lane counters) for ``--stats`` output and
  benchmark capture.

The evaluation itself is serial: the fast tree DP covers a 30k-segment
network in well under a second, so a process-pool fan-out does not pay
for its start-up.  Process-level parallelism lives one tier up, in the
service's sharded :class:`repro.service.workers.WorkerPool`.

The in-memory memoization of range queries and dead intervals lives in
:class:`repro.analysis.damage.FastDamageAnalysis` itself; the engine only
surfaces its counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.metrics import record_engine_stats
from ..obs.trace import span
from ..ir import MUX as IR_MUX
from ..ir import ROLE_DATA as IR_ROLE_DATA
from ..ir import SEGMENT as IR_SEGMENT
from ..ir import fingerprint_payload, intern
from ..rsn.network import RsnNetwork
from ..sp.tree import SPTree
from .damage import DamageReport, ExplicitDamageAnalysis, FastDamageAnalysis

#: Bump whenever the damage semantics change, so stale disk-cache entries
#: can never be served for a new algorithm version.  "3": the reachability
#: backend (``ir``/``dict``/``bitset``) joined the fingerprint payload, so
#: no version-"2" key (which never named a backend) can collide with a new
#: entry.
ANALYSIS_VERSION = "3"

_METHODS = ("fast", "explicit", "graph")
_SITES = ("all", "control", "mux")
_BACKENDS = ("ir", "dict", "bitset")


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-rsn``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-rsn")


# ---------------------------------------------------------------------------
# content fingerprint
# ---------------------------------------------------------------------------
def network_fingerprint_payload(network: RsnNetwork) -> Dict:
    """A canonical, JSON-stable description of the network structure.

    Delegates to :func:`repro.ir.fingerprint_payload`, the IR's canonical
    form: node insertion order and per-node predecessor order (mux ports)
    are part of the structure and serialized verbatim.
    """
    return fingerprint_payload(network)


def analysis_fingerprint(
    network: RsnNetwork,
    spec,
    method: str = "fast",
    policy: str = "max",
    sites: str = "all",
    backend: str = "ir",
) -> str:
    """SHA-256 over everything the report depends on (the cache key).

    The network contribution is the compiled IR's content fingerprint,
    which folds in :data:`repro.ir.IR_VERSION` — a change to either the
    analysis semantics (:data:`ANALYSIS_VERSION`) or the IR layout
    invalidates every older cache entry.  The reachability ``backend`` is
    part of the key: the backends are property-tested to agree exactly,
    but a cached report must still record which engine produced it so a
    backend-specific regression can never be masked by a stale entry
    computed by another one.
    """
    payload = {
        "version": ANALYSIS_VERSION,
        "method": method,
        "policy": policy,
        "sites": sites,
        "backend": backend,
        "ir": intern(network).fingerprint,
        "spec": spec.to_dict(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------
@dataclass
class EngineStats:
    """Timing and counter instrumentation of one ``report()`` call."""

    network: str = ""
    method: str = "fast"
    policy: str = "max"
    sites: str = "all"
    #: Reachability backend of the graph method ("ir" for tree methods).
    backend: str = "ir"
    #: Fault lanes packed / lane chunks solved by the bitset kernel
    #: (0 under the scalar backends).
    lanes: int = 0
    lane_chunks: int = 0
    primitives_evaluated: int = 0
    faults_evaluated: int = 0
    elapsed_seconds: float = 0.0
    faults_per_second: float = 0.0
    #: "hit" | "miss" | "disabled"
    cache: str = "disabled"
    cache_key: Optional[str] = None
    #: Entries evicted by the size-capped LRU pruning of this store.
    cache_evictions: int = 0
    memo: Dict[str, int] = field(default_factory=dict)

    @property
    def memo_hit_rate(self) -> float:
        hits = sum(v for k, v in self.memo.items() if k.endswith("hits"))
        misses = sum(
            v for k, v in self.memo.items() if k.endswith("misses")
        )
        return hits / (hits + misses) if hits + misses else 0.0

    def as_dict(self) -> Dict:
        return {
            "network": self.network,
            "method": self.method,
            "policy": self.policy,
            "sites": self.sites,
            "backend": self.backend,
            "lanes": self.lanes,
            "lane_chunks": self.lane_chunks,
            "primitives_evaluated": self.primitives_evaluated,
            "faults_evaluated": self.faults_evaluated,
            "elapsed_seconds": self.elapsed_seconds,
            "faults_per_second": self.faults_per_second,
            "cache": self.cache,
            "cache_key": self.cache_key,
            "cache_evictions": self.cache_evictions,
            "memo": dict(self.memo),
            "memo_hit_rate": self.memo_hit_rate,
        }

    def format(self) -> str:
        """Human-readable block for the CLI's ``--stats`` flag."""
        lines = [
            f"engine stats     : {self.network} "
            f"[{self.method}/{self.policy}/{self.sites}"
            + (f"/{self.backend}" if self.method == "graph" else "")
            + "]",
            f"  elapsed        : {self.elapsed_seconds:.3f}s",
            f"  faults         : {self.faults_evaluated:,} "
            f"({self.faults_per_second:,.0f} faults/s)",
        ]
        if self.lanes:
            lines.append(
                f"  fault lanes    : {self.lanes:,} "
                f"({self.lane_chunks} lane chunks)"
            )
        if self.cache == "hit":
            lines.append("  result cache   : hit (analysis skipped)")
        elif self.cache == "miss":
            lines.append("  result cache   : miss (stored for next run)")
        else:
            lines.append("  result cache   : disabled")
        if self.cache_key:
            lines.append(f"  cache key      : {self.cache_key[:16]}…")
        if self.cache_evictions:
            lines.append(
                f"  cache evicted  : {self.cache_evictions} entries (LRU)"
            )
        if self.memo:
            lines.append(
                f"  memo hit rate  : {self.memo_hit_rate:.1%} "
                f"({sum(self.memo.values()):,} lookups)"
            )
        return "\n".join(lines)


@dataclass
class CumulativeEngineStats:
    """Running totals across every ``report()`` call of one engine.

    ``CriticalityEngine.stats`` is intentionally per-call (it is the
    record benchmarks and ``--stats`` print), so before this view each
    call silently discarded its predecessor.  The cumulative record is
    what long-lived holders — the service, the EA loop — read for
    hit-rates and throughput, and it mirrors what
    :func:`repro.obs.metrics.record_engine_stats` feeds the global
    registry.
    """

    reports: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    faults_evaluated: int = 0
    lanes: int = 0
    lane_chunks: int = 0
    #: Fault states scored through ``population_damages`` (EA batches).
    population_states: int = 0
    elapsed_seconds: float = 0.0
    cache_evictions: int = 0

    def update(self, stats: "EngineStats") -> None:
        self.reports += 1
        if stats.cache == "hit":
            self.cache_hits += 1
        elif stats.cache == "miss":
            self.cache_misses += 1
        if stats.cache != "hit":
            self.faults_evaluated += stats.faults_evaluated
        self.lanes += stats.lanes
        self.lane_chunks += stats.lane_chunks
        self.elapsed_seconds += stats.elapsed_seconds
        self.cache_evictions += stats.cache_evictions

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def faults_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.faults_evaluated / self.elapsed_seconds

    def as_dict(self) -> Dict:
        return {
            "reports": self.reports,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "faults_evaluated": self.faults_evaluated,
            "faults_per_second": self.faults_per_second,
            "lanes": self.lanes,
            "lane_chunks": self.lane_chunks,
            "population_states": self.population_states,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_evictions": self.cache_evictions,
        }


# ---------------------------------------------------------------------------
# analysis construction
# ---------------------------------------------------------------------------
def _make_analysis(
    network, spec, tree, method, policy, backend="ir", chunk_lanes=64
):
    if method == "fast":
        return FastDamageAnalysis(network, spec, tree=tree, policy=policy)
    if method == "explicit":
        return ExplicitDamageAnalysis(
            network, spec, tree=tree, policy=policy
        )
    if method == "graph":
        from .graph_analysis import GraphDamageAnalysis

        return GraphDamageAnalysis(
            network,
            spec,
            policy=policy,
            backend=backend,
            chunk_lanes=chunk_lanes,
        )
    raise ReproError(f"unknown analysis method {method!r}")


def _batch_counters(analysis) -> Dict[str, int]:
    return getattr(analysis, "batch_counters", None) or {}


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class CriticalityEngine:
    """Cached front-end over the damage analyses.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent result cache; ``None`` disables it.
    backend:
        Reachability backend of the graph method (``"ir"``, ``"dict"`` or
        the lane-packed ``"bitset"`` kernel); must stay ``"ir"`` for the
        tree methods.
    chunk_lanes:
        Bitset working-set bound: ``uint64`` words of fault lanes per
        kernel chunk (64 words = 4096 faults).
    max_cache_mb:
        Size cap of the disk result cache in megabytes; ``None`` leaves
        it unbounded.  After every store the cache directory is pruned
        back under the cap in LRU order (oldest mtime first — cache hits
        refresh an entry's mtime), and the number of evicted entries is
        reported in :attr:`EngineStats.cache_evictions`.
    """

    def __init__(
        self,
        network: RsnNetwork,
        spec,
        tree: Optional[SPTree] = None,
        method: str = "fast",
        policy: str = "max",
        cache_dir: Optional[str] = None,
        backend: str = "ir",
        chunk_lanes: int = 64,
        max_cache_mb: Optional[float] = None,
    ):
        if method not in _METHODS:
            raise ReproError(
                f"method must be one of {_METHODS}, got {method!r}"
            )
        if backend not in _BACKENDS:
            raise ReproError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if method != "graph" and backend != "ir":
            raise ReproError(
                f"backend={backend!r} only applies to method='graph'"
            )
        self.network = network
        self.spec = spec
        self.tree = tree
        self.method = method
        self.policy = policy
        self.backend = backend
        self.chunk_lanes = max(1, int(chunk_lanes))
        self.cache_dir = cache_dir
        if max_cache_mb is not None and max_cache_mb <= 0:
            raise ReproError(
                f"max_cache_mb must be positive, got {max_cache_mb}"
            )
        self.max_cache_mb = max_cache_mb
        self.stats: Optional[EngineStats] = None
        self.cumulative = CumulativeEngineStats()
        self._analysis = None
        self._population = None

    # -- public API ------------------------------------------------------
    def report(self, sites: str = "all") -> DamageReport:
        """Compute (or load) the :class:`DamageReport` for ``sites``.

        ``self.stats`` holds the :class:`EngineStats` of this call
        afterwards; ``self.cumulative`` keeps accumulating across calls,
        and every call is folded into the global metrics registry.
        """
        if sites not in _SITES:
            raise ReproError(f"unknown damage-site filter {sites!r}")
        started = time.perf_counter()
        stats = EngineStats(
            network=self.network.name,
            method=self.method,
            policy=self.policy,
            sites=sites,
            backend=self.backend,
        )
        self.stats = stats
        with span(
            "engine.analyze",
            network=self.network.name,
            fingerprint=intern(self.network).fingerprint[:16],
            method=self.method,
            backend=self.backend,
            sites=sites,
        ) as analyze_span:
            report = self._report(sites, stats)
            analyze_span.set_attribute("cache", stats.cache)
            if stats.lanes:
                analyze_span.set_attribute("lanes", stats.lanes)
        stats.elapsed_seconds = time.perf_counter() - started
        if stats.elapsed_seconds > 0:
            stats.faults_per_second = (
                stats.faults_evaluated / stats.elapsed_seconds
            )
        self.cumulative.update(stats)
        record_engine_stats(stats)
        return report

    def _report(self, sites: str, stats: EngineStats) -> DamageReport:
        key = None
        if self.cache_dir:
            key = analysis_fingerprint(
                self.network,
                self.spec,
                self.method,
                self.policy,
                sites,
                self.backend,
            )
            stats.cache_key = key
            with span("engine.cache_lookup", key=key[:16]) as lookup:
                report = self._load_cached(key)
                lookup.set_attribute(
                    "outcome", "hit" if report is not None else "miss"
                )
            if report is not None:
                stats.cache = "hit"
                return report
            stats.cache = "miss"

        evaluated, skipped = self._partition_primitives(sites)
        stats.primitives_evaluated = len(evaluated)
        stats.faults_evaluated = self._count_faults(evaluated)

        with span("engine.serial", primitives=len(evaluated)):
            before = _batch_counters(self._build_analysis())
            damages = self._serial_damages(evaluated)
            after = _batch_counters(self._analysis)
        stats.lanes = after.get("lanes", 0) - before.get("lanes", 0)
        stats.lane_chunks = after.get("chunks", 0) - before.get("chunks", 0)

        primitive_damage: Dict[str, float] = {}
        by_name = dict(zip(evaluated, damages))
        for node in self.network.nodes():
            if node.name in by_name:
                primitive_damage[node.name] = by_name[node.name]
            elif node.name in skipped:
                primitive_damage[node.name] = 0.0
        unit_damage = {
            unit.name: sum(
                primitive_damage[member] for member in unit.members
            )
            for unit in self.network.units()
        }
        report = DamageReport(
            self.network, self.policy, primitive_damage, unit_damage
        )
        if key is not None:
            with span("engine.cache_store", key=key[:16]):
                stats.cache_evictions = self._store_cached(key, report)

        analysis = self._analysis
        if analysis is not None and hasattr(analysis, "memo_counters"):
            stats.memo = dict(analysis.memo_counters)
        return report

    # -- partitioning ----------------------------------------------------
    def _partition_primitives(self, sites: str):
        """Split primitives into (evaluated, zero-filled) per the site
        filter, mirroring ``_AnalysisBase.report`` exactly."""
        ir = intern(self.network)
        evaluated: List[str] = []
        skipped: List[str] = []
        for node_id, name in enumerate(ir.names):
            kind = ir.kinds[node_id]
            if kind == IR_MUX:
                evaluated.append(name)
            elif kind == IR_SEGMENT:
                skip = sites == "mux" or (
                    sites == "control"
                    and ir.roles[node_id] == IR_ROLE_DATA
                )
                (skipped if skip else evaluated).append(name)
        return evaluated, set(skipped)

    def _count_faults(self, names: List[str]) -> int:
        ir = intern(self.network)
        count = 0
        for name in names:
            node_id = ir.id_of(name)
            if ir.kinds[node_id] == IR_MUX:
                count += ir.fanin[node_id]
            else:
                count += 1
        return count

    # -- evaluation paths ------------------------------------------------
    def _build_analysis(self):
        if self._analysis is None:
            self._analysis = _make_analysis(
                self.network,
                self.spec,
                self.tree,
                self.method,
                self.policy,
                self.backend,
                self.chunk_lanes,
            )
        return self._analysis

    def _serial_damages(self, names: List[str]) -> List[float]:
        analysis = self._build_analysis()
        if hasattr(analysis, "primitive_damages"):
            return analysis.primitive_damages(names)
        return [analysis.primitive_damage(name) for name in names]

    # -- population queries ----------------------------------------------
    def population_analysis(self):
        """The graph analysis population queries run on.

        The graph method shares the engine's own analysis (and its lane
        kernel); the tree methods cannot answer multi-fault state queries,
        so a graph analysis with the engine's backend and ``chunk_lanes``
        is built lazily alongside them.
        """
        if self.method == "graph":
            return self._build_analysis()
        if self._population is None:
            from .graph_analysis import GraphDamageAnalysis

            self._population = GraphDamageAnalysis(
                self.network,
                self.spec,
                policy=self.policy,
                backend=self.backend,
                chunk_lanes=self.chunk_lanes,
            )
        return self._population

    def population_damages(self, states):
        """Damage of many ``(broken ids, mux pins)`` fault states — the
        EA's batched objective query, with the kernel's lane counters
        folded into :attr:`cumulative`."""
        states = list(states)
        analysis = self.population_analysis()
        before = _batch_counters(analysis)
        with span(
            "engine.population",
            states=len(states),
            backend=self.backend,
        ):
            damages = analysis.damage_of_states(states)
        after = _batch_counters(analysis)
        self.cumulative.lanes += after.get("lanes", 0) - before.get(
            "lanes", 0
        )
        self.cumulative.lane_chunks += after.get(
            "chunks", 0
        ) - before.get("chunks", 0)
        self.cumulative.population_states += len(states)
        return damages

    def population_damages_packed(self, packed):
        """Damage per lane of a pre-lowered
        :class:`repro.analysis.batch.PackedStates` block — the
        array-form counterpart of :meth:`population_damages` for callers
        that lower whole genome blocks vectorized (requires the bitset
        backend; consumes ``packed``)."""
        analysis = self.population_analysis()
        before = _batch_counters(analysis)
        with span(
            "engine.population",
            states=packed.lanes,
            backend=self.backend,
            packed=True,
        ):
            damages = analysis.damage_of_packed_states(packed)
        after = _batch_counters(analysis)
        self.cumulative.lanes += after.get("lanes", 0) - before.get(
            "lanes", 0
        )
        self.cumulative.lane_chunks += after.get(
            "chunks", 0
        ) - before.get("chunks", 0)
        self.cumulative.population_states += packed.lanes
        return damages

    # -- disk cache ------------------------------------------------------
    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _load_cached(self, key: str) -> Optional[DamageReport]:
        try:
            with open(self._cache_path(key), encoding="utf-8") as handle:
                payload = json.load(handle)
            primitive_damage = {
                str(name): float(value)
                for name, value in payload["primitive_damage"].items()
            }
            unit_damage = {
                str(name): float(value)
                for name, value in payload["unit_damage"].items()
            }
        except (OSError, ValueError, KeyError, TypeError):
            return None  # absent or corrupt: recompute
        try:
            # LRU touch: a hit refreshes the entry's mtime so the pruner
            # evicts cold entries first.
            os.utime(self._cache_path(key))
        except OSError:
            pass
        return DamageReport(
            self.network, self.policy, primitive_damage, unit_damage
        )

    def _store_cached(self, key: str, report: DamageReport) -> int:
        """Store the report; returns how many LRU entries were evicted."""
        payload = {
            "fingerprint": key,
            "analysis_version": ANALYSIS_VERSION,
            "network": self.network.name,
            "method": self.method,
            "policy": self.policy,
            "primitive_damage": report.primitive_damage,
            "unit_damage": report.unit_damage,
        }
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self._cache_path(key))
        except OSError:
            return 0  # a read-only cache dir must not fail the analysis
        return self._prune_cache(keep=self._cache_path(key))

    def _prune_cache(self, keep: Optional[str] = None) -> int:
        """Evict LRU entries until the cache fits ``max_cache_mb``.

        ``keep`` (the entry just stored) is never evicted, so a single
        oversized report cannot thrash itself out of its own cache.
        """
        if self.max_cache_mb is None:
            return 0
        budget = self.max_cache_mb * 1024 * 1024
        entries = []  # (mtime, size, path)
        total = 0
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                info = os.stat(path)
            except OSError:
                continue  # concurrently evicted by another engine
            entries.append((info.st_mtime, info.st_size, path))
            total += info.st_size
        evicted = 0
        for mtime, size, path in sorted(entries):
            if total <= budget:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue  # lost the race; its size is gone either way
            total -= size
            evicted += 1
        return evicted


def analyze_damage_cached(
    network: RsnNetwork,
    spec,
    tree: Optional[SPTree] = None,
    method: str = "fast",
    policy: str = "max",
    sites: str = "all",
    cache_dir: Optional[str] = None,
    backend: str = "ir",
    chunk_lanes: int = 64,
    max_cache_mb: Optional[float] = None,
) -> Tuple[DamageReport, EngineStats]:
    """One-shot convenience wrapper: build an engine, return
    ``(report, stats)``."""
    engine = CriticalityEngine(
        network,
        spec,
        tree=tree,
        method=method,
        policy=policy,
        cache_dir=cache_dir,
        backend=backend,
        chunk_lanes=chunk_lanes,
        max_cache_mb=max_cache_mb,
    )
    report = engine.report(sites=sites)
    return report, engine.stats

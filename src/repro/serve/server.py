"""The thread-pool query server: concurrent reads during maintenance.

:class:`QueryServer` answers :class:`~repro.query.router.AggregateQuery`
objects through the warehouse's :class:`~repro.query.router.QueryRouter`
on a thread pool.  Safety under concurrent maintenance rests on two
mechanisms, both upstream of this module:

* the router pins the routed view's current
  :class:`~repro.views.materialize.ViewVersion` into the plan, so one
  query evaluates against one epoch no matter how many versioned
  refreshes publish mid-scan;
* versioned refresh (:func:`repro.core.transactional.refresh_versioned`)
  never mutates a published table, so a pinned epoch stays internally
  consistent for as long as any reader references it.

On top of that the server adds a hot-query result cache keyed by the
query's structural fingerprint and stamped with the pinned source
version's ``(epoch, revision)`` pair: a published swap installs the next
epoch, an in-place refresh the next revision, and either way the stale
entry stops matching — the cache can never serve an answer from a
superseded view state, and one publish invalidates an entry once.

Queries that no summary table can answer fall back to scanning the base
fact table, which is *not* versioned; during a maintenance cycle those
reads may observe base changes mid-apply.  Fallback results are therefore
never cached, and concurrent-serving guarantees apply to view-routed
queries only (the paper's motivating case: summary tables exist precisely
so queries avoid the fact table).

Returned tables are shared — a cached result may be handed to many
callers — and must be treated as read-only.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..obs import metrics as obs_metrics
from ..obs import serving as obs_serving
from ..obs import tracing
from ..query.router import AggregateQuery, QueryRouter
from ..relational.table import Table
from ..warehouse.catalog import Warehouse

#: Cache stamp: (view name, published epoch, in-place revision of it).
CacheStamp = tuple[str, int, int]


def query_fingerprint(query: AggregateQuery) -> tuple:
    """Structural identity of a query, usable as a cache key.

    Two queries with the same fact table, group-by, aggregate outputs,
    and dimension joins are the same query; aggregate functions render
    deterministically (``repr`` is their SQL-ish rendering), so the
    fingerprint is stable across separately-constructed equal queries.
    """
    definition = query.definition
    return (
        definition.fact.name,
        tuple(definition.group_by),
        tuple(
            (output.name, repr(output.function))
            for output in definition.aggregates
        ),
        tuple(definition.dimensions),
        repr(definition.where) if definition.where is not None else None,
    )


class QueryResultCache:
    """A small LRU of answered queries, stamped with view versions.

    ``get`` returns a hit only when the caller's *stamp* — derived from
    the routed view's pinned epoch and in-place revision — equals the stamp
    the entry was stored under; anything else is treated as a miss and
    the stale entry is dropped.  All operations take one lock, so the
    cache is safe under the server's thread pool.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[CacheStamp, Table]]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple, stamp: CacheStamp) -> Table | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            cached_stamp, table = entry
            if cached_stamp != stamp:
                # The view moved on (new epoch or in-place refresh);
                # the entry can never become valid again.
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return table

    def put(self, key: tuple, stamp: CacheStamp, table: Table) -> None:
        with self._lock:
            self._entries[key] = (stamp, table)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass
class ServeStats:
    """What one server has done since construction (thread-safe)."""

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    base_fallbacks: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def note(self, hit: bool | None, base_fallback: bool) -> None:
        with self._lock:
            self.queries += 1
            if hit is True:
                self.cache_hits += 1
            elif hit is False:
                self.cache_misses += 1
            if base_fallback:
                self.base_fallbacks += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "queries": self.queries,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "base_fallbacks": self.base_fallbacks,
            }

    @property
    def hit_rate(self) -> float:
        with self._lock:
            probes = self.cache_hits + self.cache_misses
            return self.cache_hits / probes if probes else 0.0


class QueryServer:
    """Answers aggregate queries concurrently, including during refresh.

    Usable as a context manager; ``close()`` (or leaving the ``with``
    block) shuts the pool down.  ``answer`` runs in the calling thread —
    it is what pool workers execute — so the server composes with
    callers that bring their own threads (the concurrency battery does).

    Telemetry (see :mod:`repro.obs.serving`): every query carries a
    process-unique request id that the router's plan/eval spans tag
    themselves with; latency, cache outcome, and source-view counters
    land in the metrics registry *unconditionally* — ``REPRO_TRACE``
    gates span emission only — and the slowest queries are retained in
    :attr:`slow_queries`.  A *staleness_slo_s* (or the
    ``REPRO_STALENESS_SLO_S`` environment default) counts
    ``serve.slo_violations`` whenever a query is answered from a view
    staler than the SLO.  ``expose_http`` embeds a
    :class:`~repro.obs.serving.MetricsExporter` serving ``/metrics``,
    ``/status``, and ``/slow`` for the server's lifetime (``True`` binds
    an ephemeral port; an integer binds that port).
    """

    def __init__(
        self,
        warehouse: Warehouse,
        max_workers: int = 4,
        cache_capacity: int = 128,
        staleness_slo_s: float | None = None,
        slow_query_capacity: int = 32,
        expose_http: bool | int | None = None,
    ):
        self.warehouse = warehouse
        self.router = QueryRouter(warehouse)
        self.cache = QueryResultCache(cache_capacity)
        self.stats = ServeStats()
        self.staleness_slo_s = obs_serving.resolve_staleness_slo(
            staleness_slo_s
        )
        self.slow_queries = obs_serving.SlowQuerySampler(slow_query_capacity)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self.exporter: obs_serving.MetricsExporter | None = None
        # Identity checks, not ``in (None, False)``: port 0 (== False)
        # legitimately requests an ephemeral port.
        if expose_http is not None and expose_http is not False:
            port = 0 if expose_http is True else int(expose_http)
            self.exporter = obs_serving.MetricsExporter(
                warehouse=warehouse,
                sampler=self.slow_queries,
                server=self,
                port=port,
            ).start()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        if self.exporter is not None:
            self.exporter.close()
            self.exporter = None

    def answer(
        self,
        query: AggregateQuery,
        use_cache: bool = True,
        request_id: int | None = None,
    ) -> Table:
        """Plan, consult the cache, and evaluate against a pinned epoch.

        *request_id* is normally assigned here; :meth:`submit` allocates
        it at submission time instead, so a trace ties the pool thread's
        work back to the submitting caller.
        """
        start = time.perf_counter()
        if request_id is None:
            request_id = obs_serving.next_request_id()
        with obs_serving.request_scope(request_id):
            with tracing.span(
                "serve.query", fact=query.definition.fact.name,
                request=request_id,
            ) as span:
                plan = self.router.plan(query)
                source = plan.source_view
                span.set_tag("source", source.name if source else "base")
                cacheable = use_cache and plan.uses_summary_table
                key: tuple | None = None
                stamp: CacheStamp | None = None
                if cacheable:
                    key = query_fingerprint(query)
                    stamp = (source.name, *plan.source_stamp)
                    cached = self.cache.get(key, stamp)
                    if cached is not None:
                        span.set_tag("cache", "hit")
                        self.stats.note(hit=True, base_fallback=False)
                        self._record(start, "hit", plan, request_id)
                        return cached
                result = self.router.answer_plan(plan)
                if cacheable:
                    self.cache.put(key, stamp, result)
                cache_state = "miss" if cacheable else "bypass"
                span.set_tag("cache", cache_state)
                self.stats.note(
                    hit=False if cacheable else None,
                    base_fallback=source is None,
                )
                self._record(start, cache_state, plan, request_id)
                return result

    def submit(self, query: AggregateQuery, use_cache: bool = True) -> Future:
        """Schedule one query on the pool; returns its future.

        The request id is allocated *now*, in submission order, and
        travels with the query onto whichever pool thread evaluates it.
        """
        request_id = obs_serving.next_request_id()
        return self._pool.submit(self.answer, query, use_cache, request_id)

    def answer_many(
        self, queries: Sequence[AggregateQuery] | Iterable[AggregateQuery],
        use_cache: bool = True,
    ) -> list[Table]:
        """Fan a batch of queries out on the pool; results in input order."""
        futures = [self.submit(query, use_cache) for query in queries]
        return [future.result() for future in futures]

    def _record(
        self, start: float, cache_state: str, plan, request_id: int
    ) -> None:
        """Record one answered query into the registry and the sampler.

        Unconditional by design: the metrics registry is always live, and
        a serving dashboard must not go dark because span recording
        (``REPRO_TRACE``) is off.  Only span emission follows the trace
        switch.
        """
        seconds = time.perf_counter() - start
        source = plan.source_view
        source_name = source.name if source is not None else "base"
        registry = obs_metrics.registry()
        registry.counter("serve.queries").inc()
        registry.counter(
            "serve.queries_by_source", labels={"source": source_name}
        ).inc()
        if cache_state == "hit":
            registry.counter("serve.cache_hits").inc()
        elif cache_state == "miss":
            registry.counter("serve.cache_misses").inc()
        if source is None:
            registry.counter("serve.base_fallbacks").inc()
        registry.histogram(
            "serve.latency_s", bounds=obs_metrics.LATENCY_BUCKETS_S
        ).observe(seconds)
        if source is not None:
            staleness = source.freshness.staleness_seconds()
            registry.gauge(
                "serve.staleness_seconds", labels={"view": source_name}
            ).set(round(staleness, 6))
            if (
                self.staleness_slo_s is not None
                and staleness > self.staleness_slo_s
            ):
                registry.counter("serve.slo_violations").inc()
                registry.counter(
                    "serve.slo_violations_by_view",
                    labels={"view": source_name},
                ).inc()
        self.slow_queries.record(obs_serving.SlowQuerySample(
            seconds=seconds,
            request_id=request_id,
            fact=plan.query.definition.fact.name,
            source=source_name,
            epoch=plan.source_epoch,
            cache=cache_state,
            ts=time.time(),
        ))

"""Change-set lineage: batch ids from ingest to published epochs.

The paper's deferred-maintenance model (§1–2) batches source changes in
``pos_ins`` / ``pos_del`` tables and folds them into the summary tables
during a maintenance window.  The observability layers so far watch the
two endpoints — maintenance phases on one side, per-view staleness on
the other — but cannot answer the questions that sit *between* them:
which published epochs contain change batch N?  How long did a change
wait between arriving at the warehouse and becoming queryable?

This module threads an identity through the whole pipeline:

* :class:`LineageClock` — a process-wide allocator of monotonically
  increasing **batch ids**, each stamped with its ingest timestamp.
  Every :class:`~repro.warehouse.changes.ChangeSet` enqueue draws one.
* :class:`BatchLineage` — the set of batches contributing to a change
  set or a summary delta: batch id → ingest timestamp, composable under
  merge/accumulation and cheap to snapshot (deltas carry an immutable
  copy taken at propagate time).
* :class:`EpochManifest` — the publish-side record: when one refresh
  publishes, the contributing batches and their ingest→publish lags are
  pinned to the resulting ``(epoch, refresh_count)`` stamp, next to the
  epoch's certificate.
* :class:`ViewLineage` — the per-view manifest log, mirroring
  :class:`~repro.obs.audit.ViewFreshness`.  It indexes manifests by
  runs of consecutive batch ids and *refuses duplicates*: a batch id landing in a second
  manifest for the same view means the same deferred changes were
  applied twice, which corrupts aggregates — the no-loss/no-duplication
  invariant the property suite checks is enforced at record time.

:func:`record_publish` is the single hook refresh calls after a
successful publish; a refresh that raises (abandoned shadow, failed
publish) records nothing, so manifests only ever describe epochs that
became visible.  Like the serving metrics, lineage metrics
record unconditionally — ``REPRO_TRACE`` gates spans, not lineage.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping

from ..errors import LineageError
from . import metrics as obs_metrics

__all__ = [
    "BatchLineage",
    "EpochManifest",
    "LineageClock",
    "ViewLineage",
    "compress_intervals",
    "lineage_clock",
    "record_publish",
    "set_lineage_clock",
]


def compress_intervals(batch_ids: Iterable[int]) -> list[tuple[int, int]]:
    """Sorted ``[lo, hi]`` runs of consecutive batch ids.

    Batch ids are allocated monotonically, so the batches of one change
    set (and of the manifests downstream) are usually a handful of dense
    runs; intervals are how lineage renders and serialises them without
    listing every id.
    """
    out: list[tuple[int, int]] = []
    for batch_id in sorted(set(batch_ids)):
        if out and batch_id == out[-1][1] + 1:
            out[-1] = (out[-1][0], batch_id)
        else:
            out.append((batch_id, batch_id))
    return out


class LineageClock:
    """Process-wide monotonic batch-id allocator (thread-safe).

    One id per :class:`~repro.warehouse.changes.ChangeSet` enqueue call;
    ids are unique across every change set drawing from the same clock,
    which is what lets a batch be traced through merges, propagation,
    and into whichever epoch manifests finally contain it.
    """

    def __init__(self, start: int = 1):
        self._lock = threading.Lock()
        self._next = start

    def next_batch(self, now: float | None = None) -> tuple[int, float]:
        """Allocate ``(batch_id, ingest_ts)``."""
        ts = now if now is not None else time.time()
        with self._lock:
            batch_id = self._next
            self._next += 1
        return batch_id, ts

    def peek(self) -> int:
        """The id the next allocation will return (for tests/diagnostics)."""
        with self._lock:
            return self._next


_clock = LineageClock()


def lineage_clock() -> LineageClock:
    """The process-wide clock every change-set enqueue stamps from."""
    return _clock


def set_lineage_clock(clock: LineageClock) -> LineageClock:
    """Swap the process-wide clock (tests); returns the previous one."""
    global _clock
    previous = _clock
    _clock = clock
    return previous


class BatchLineage:
    """The batches behind one change set or summary delta.

    A mapping of batch id → ingest timestamp.  Mutable on the change-set
    side (enqueues stamp, ``merge`` composes, ``clear`` resets alongside
    the deferred rows); deltas carry a :meth:`snapshot` taken when
    propagate reads the change set, so later enqueues never leak into an
    already-computed delta's lineage.
    """

    __slots__ = ("_ingest",)

    def __init__(self, ingest: Mapping[int, float] | None = None):
        self._ingest: dict[int, float] = dict(ingest) if ingest else {}

    def __len__(self) -> int:
        return len(self._ingest)

    def __bool__(self) -> bool:
        return bool(self._ingest)

    def __contains__(self, batch_id: int) -> bool:
        return batch_id in self._ingest

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._ingest))

    def __repr__(self) -> str:
        runs = ",".join(
            f"{lo}" if lo == hi else f"{lo}-{hi}"
            for lo, hi in self.intervals()
        )
        return f"BatchLineage([{runs}])"

    def stamp(self, batch_id: int, ingest_ts: float) -> None:
        """Record one batch; an earlier ingest timestamp wins on re-stamp."""
        previous = self._ingest.get(batch_id)
        if previous is None or ingest_ts < previous:
            self._ingest[batch_id] = ingest_ts

    def merge(self, other: "BatchLineage") -> None:
        """Fold another lineage in (change-set accumulation/merge)."""
        for batch_id, ingest_ts in other._ingest.items():
            self.stamp(batch_id, ingest_ts)

    def clear(self) -> None:
        self._ingest.clear()

    def snapshot(self) -> "BatchLineage":
        """An independent copy (what summary deltas carry)."""
        return BatchLineage(self._ingest)

    def batch_ids(self) -> frozenset[int]:
        return frozenset(self._ingest)

    def ingest_ts(self, batch_id: int) -> float:
        return self._ingest[batch_id]

    def items(self) -> list[tuple[int, float]]:
        """``(batch_id, ingest_ts)`` pairs, oldest batch id first."""
        return sorted(self._ingest.items())

    def intervals(self) -> list[tuple[int, int]]:
        return compress_intervals(self._ingest)

    def oldest_ingest_ts(self) -> float | None:
        return min(self._ingest.values()) if self._ingest else None

    def oldest_age_s(self, now: float | None = None) -> float:
        """Age of the oldest batch (0.0 when empty)."""
        oldest = self.oldest_ingest_ts()
        if oldest is None:
            return 0.0
        now = now if now is not None else time.time()
        return max(0.0, now - oldest)

    def difference(self, published: frozenset[int]) -> "BatchLineage":
        """The batches here that are *not* in *published* (the pending set
        of a change set relative to one view's manifests)."""
        return BatchLineage({
            batch_id: ts for batch_id, ts in self._ingest.items()
            if batch_id not in published
        })

    def as_dict(self) -> dict[str, Any]:
        return {
            "batches": len(self._ingest),
            "intervals": [list(run) for run in self.intervals()],
            "oldest_ingest_ts": self.oldest_ingest_ts(),
        }


class EpochManifest:
    """One committed refresh: which batches became visible, and when.

    Immutable once recorded.  ``epoch`` / ``refresh_count`` are the
    view's :meth:`~repro.views.materialize.MaterializedView.version_stamp`
    after the commit — the same stamp the serving cache keys on, so a
    manifest names exactly the view state a reader observes the batches
    in.  Per-batch lag is ``publish_ts - ingest_ts``: the end-to-end
    time a change waited between arriving and becoming queryable.
    """

    __slots__ = ("view", "epoch", "refresh_count", "publish_ts", "_ingest")

    def __init__(
        self,
        view: str,
        epoch: int,
        refresh_count: int,
        publish_ts: float,
        lineage: BatchLineage,
    ):
        self.view = view
        self.epoch = epoch
        self.refresh_count = refresh_count
        self.publish_ts = publish_ts
        self._ingest: dict[int, float] = dict(lineage._ingest)

    def __repr__(self) -> str:
        runs = ",".join(
            f"{lo}" if lo == hi else f"{lo}-{hi}"
            for lo, hi in self.intervals()
        )
        return (
            f"EpochManifest({self.view!r}, epoch {self.epoch}, "
            f"batches [{runs}])"
        )

    def __contains__(self, batch_id: int) -> bool:
        return batch_id in self._ingest

    @property
    def batches(self) -> tuple[int, ...]:
        return tuple(sorted(self._ingest))

    def intervals(self) -> list[tuple[int, int]]:
        return compress_intervals(self._ingest)

    def lags(self) -> dict[int, float]:
        """Per-batch ingest→publish lag in seconds (never negative)."""
        return {
            batch_id: max(0.0, self.publish_ts - ingest_ts)
            for batch_id, ingest_ts in sorted(self._ingest.items())
        }

    @property
    def max_lag_s(self) -> float:
        lags = self.lags()
        return max(lags.values()) if lags else 0.0

    @property
    def mean_lag_s(self) -> float:
        lags = self.lags()
        return sum(lags.values()) / len(lags) if lags else 0.0

    def as_dict(self) -> dict[str, Any]:
        lags = self.lags()
        return {
            "view": self.view,
            "epoch": self.epoch,
            "refresh_count": self.refresh_count,
            "publish_ts": self.publish_ts,
            "batches": len(self._ingest),
            "intervals": [list(run) for run in self.intervals()],
            "max_lag_s": round(self.max_lag_s, 6),
            "mean_lag_s": round(self.mean_lag_s, 6),
        }


class ViewLineage:
    """Per-view manifest log + batch index (thread-safe).

    Attached to every :class:`~repro.views.materialize.MaterializedView`
    the way ``freshness`` is.  ``record`` appends a manifest and indexes
    its batches; a batch id already present in an earlier manifest of
    the *same* view raises :class:`~repro.errors.LineageError` before
    anything is recorded — the same batches landing in sibling views'
    manifests is normal (one change set maintains many views), landing
    twice in one view means a double apply.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._manifests: list[EpochManifest] = []
        # The published batch ids as disjoint runs in id order: run *i*
        # is ``_lows[i]`` to ``_highs[i]``, every id of it published in
        # ``_owners[i]``.  One entry per run of a manifest, not per batch:
        # a view refreshed every cycle publishes batches without end.
        self._lows: list[int] = []
        self._highs: list[int] = []
        self._owners: list[EpochManifest] = []
        self._published = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._manifests)

    def _owner(self, batch_id: int) -> EpochManifest | None:
        """The manifest that published *batch_id* (lock held)."""
        i = bisect_right(self._lows, batch_id) - 1
        return self._owners[i] if i >= 0 and self._highs[i] >= batch_id else None

    def record(
        self,
        view: str,
        epoch: int,
        refresh_count: int,
        lineage: BatchLineage,
        publish_ts: float | None = None,
    ) -> EpochManifest:
        publish_ts = publish_ts if publish_ts is not None else time.time()
        manifest = EpochManifest(
            view, epoch, refresh_count, publish_ts, lineage
        )
        runs = manifest.intervals()
        with self._lock:
            for lo, hi in runs:     # the lowest batch id published before
                i = bisect_left(self._highs, lo)
                if i < len(self._lows) and self._lows[i] <= hi:
                    prior = self._owners[i]
                    raise LineageError(
                        f"batch {max(lo, self._lows[i])} already published "
                        f"to view {view!r} in epoch {prior.epoch} (refresh "
                        f"{prior.refresh_count}); applying it again would "
                        "double-count its changes"
                    )
            for lo, hi in runs:
                i = bisect_left(self._lows, lo)
                self._lows.insert(i, lo)
                self._highs.insert(i, hi)
                self._owners.insert(i, manifest)
            self._manifests.append(manifest)
            self._published += len(manifest._ingest)
        return manifest

    def manifests(self) -> list[EpochManifest]:
        with self._lock:
            return list(self._manifests)

    def manifests_since(self, mark: int) -> list[EpochManifest]:
        """Manifests recorded after the log held *mark* entries."""
        with self._lock:
            return list(self._manifests[mark:])

    def last_manifest(self) -> EpochManifest | None:
        with self._lock:
            return self._manifests[-1] if self._manifests else None

    def manifest_for(self, batch_id: int) -> EpochManifest | None:
        """The manifest containing *batch_id*, or ``None`` if unpublished."""
        with self._lock:
            return self._owner(batch_id)

    def published_batches(self) -> frozenset[int]:
        with self._lock:
            return frozenset(chain.from_iterable(
                map(range, self._lows, [hi + 1 for hi in self._highs])
            ))

    def batches_published(self) -> int:
        with self._lock:
            return self._published

    def pending_against(self, lineage: BatchLineage) -> BatchLineage:
        """The batches of *lineage* not yet published to this view."""
        with self._lock:
            published = frozenset(
                batch_id for batch_id in lineage._ingest
                if self._owner(batch_id) is not None
            )
        return lineage.difference(published)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            last = self._manifests[-1] if self._manifests else None
            intervals: list[list[int]] = []
            for lo, hi in zip(self._lows, self._highs):
                if intervals and lo == intervals[-1][1] + 1:
                    intervals[-1][1] = hi
                else:
                    intervals.append([lo, hi])
            return {
                "manifests": len(self._manifests),
                "batches_published": self._published,
                "intervals": intervals,
                "last_manifest": last.as_dict() if last is not None else None,
            }


def record_publish(
    view,
    delta,
    metrics: obs_metrics.MetricsRegistry | None = None,
    now: float | None = None,
) -> EpochManifest | None:
    """Record one committed refresh's manifest and observe its lag metrics.

    Called by :func:`~repro.core.refresh.apply_refresh` *after* the
    commit point (publish swap done, freshness stamped) — never on an
    abandoned refresh.  Returns ``None`` when the delta carries no
    lineage (a hand-built delta table) or the view has no lineage
    tracker (a duck-typed stand-in).
    """
    lineage = getattr(delta, "lineage", None)
    tracker = getattr(view, "lineage", None)
    if tracker is None or not lineage:
        return None
    epoch, refresh_count = view.version_stamp()
    manifest = tracker.record(
        view.name, epoch, refresh_count, lineage, publish_ts=now
    )
    registry = metrics if metrics is not None else obs_metrics.registry()
    labels = {"view": view.name}
    lag_histogram = registry.histogram(
        "lineage.visibility_lag_s", labels=labels,
        bounds=obs_metrics.LAG_BUCKETS_S,
    )
    for lag in manifest.lags().values():
        lag_histogram.observe(lag)
    registry.counter("lineage.manifests", labels=labels).inc()
    registry.counter("lineage.batches_published", labels=labels).inc(
        len(manifest.batches)
    )
    return manifest

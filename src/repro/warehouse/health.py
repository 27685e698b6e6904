"""Warehouse health: freshness status, integrity audits, fault injection.

The operational layer over :mod:`repro.obs.audit`:

* :func:`warehouse_status` — one :class:`ViewStatus` per summary table:
  row count, maintained certificate, certificate-vs-stored verdict,
  last-refresh run id/kind, pending change counts, staleness seconds
  (the ``repro status`` table);
* :func:`export_status_gauges` — the same quantities as labelled metrics
  gauges (``freshness.staleness_seconds{view=...}`` and friends);
* :func:`audit_warehouse` — the corruption-detecting audit.  Full mode
  compares three certificates per view — *maintained* (incremental),
  *stored* (recomputed from the stored rows), *expected* (recomputed
  from base data) — so ``certificate == recompute`` certifies the view
  without a row-by-row table comparison.  Sample mode re-derives *k*
  random summary tuples from base facts instead of recomputing the whole
  view.  Both modes cross-check derivable views against their D-lattice
  parent (Theorem 5.1): the child's rows must equal what the edge query
  derives from the parent.  Parent mismatches are *warnings* — they
  implicate the edge, not a specific endpoint — so a corrupt parent
  never flags a clean child as FAILED.
* :func:`inject_corruption` — fault injection for tests and the CI
  smoke: mutate an aggregate, drop a group, insert a phantom group
  (all bypassing the certificate observers, simulating storage
  corruption), or skip one view's delta application (``missed-delta``).

How each corruption class is caught:

=============  ============================================  =========
class          detector                                      mode
=============  ============================================  =========
mutate         maintained ≠ stored (certificate drift)       any
drop           maintained ≠ stored                           any
phantom        maintained ≠ stored; drill-down finds no       any
               base rows for the group
missed-delta   maintained = stored ≠ expected (the view       full
               is internally consistent but stale);           (sampled:
               drill-down catches sampled stale groups        best-effort)
=============  ============================================  =========
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ..obs.audit import (
    IntegrityEvent,
    ViewFreshness,
    record_events,
    row_digest,
    rows_certificate,
)

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import Warehouse

__all__ = [
    "AuditReport",
    "CORRUPTION_KINDS",
    "ViewAuditResult",
    "ViewStatus",
    "audit_warehouse",
    "export_status_gauges",
    "format_status",
    "inject_corruption",
    "warehouse_status",
]


# ----------------------------------------------------------------------
# Status (freshness + certificate table)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ViewStatus:
    """One summary table's health line."""

    name: str
    fact: str
    rows: int
    certificate: str                 #: maintained certificate (hex)
    certificate_ok: bool | None      #: maintained == stored (None: unchecked)
    freshness: ViewFreshness
    pending_insertions: int
    pending_deletions: int
    staleness_seconds: float


def warehouse_status(
    warehouse: "Warehouse",
    now: float | None = None,
    verify_certificates: bool = True,
) -> list[ViewStatus]:
    """One :class:`ViewStatus` per summary table, name-sorted.

    With *verify_certificates* each view's stored rows are re-digested
    and compared against the maintained certificate — O(|view|) digests,
    the point of a status check.  Pass ``False`` for a cheap listing.
    """
    now = now if now is not None else time.time()
    statuses: list[ViewStatus] = []
    for name in sorted(warehouse.views):
        view = warehouse.views[name]
        fact_name = view.definition.fact.name
        pending = warehouse.pending_changes(fact_name)
        certificate_ok: bool | None = None
        if verify_certificates:
            certificate_ok = (
                view.certificate.value == rows_certificate(view.table.rows())
            )
        statuses.append(ViewStatus(
            name=name,
            fact=fact_name,
            rows=len(view.table),
            certificate=view.certificate.hex,
            certificate_ok=certificate_ok,
            freshness=view.freshness,
            pending_insertions=len(pending.insertions),
            pending_deletions=len(pending.deletions),
            staleness_seconds=view.freshness.staleness_seconds(now),
        ))
    return statuses


def export_status_gauges(
    warehouse: "Warehouse",
    metrics=None,
    now: float | None = None,
) -> None:
    """Export per-view freshness/integrity gauges to the registry."""
    from ..obs import metrics as obs_metrics

    registry = metrics if metrics is not None else obs_metrics.registry()
    for status in warehouse_status(warehouse, now=now):
        labels = {"view": status.name}
        registry.gauge("freshness.staleness_seconds", labels=labels).set(
            round(status.staleness_seconds, 3)
        )
        registry.gauge("freshness.pending_insertions", labels=labels).set(
            status.pending_insertions
        )
        registry.gauge("freshness.pending_deletions", labels=labels).set(
            status.pending_deletions
        )
        registry.gauge("freshness.refresh_count", labels=labels).set(
            status.freshness.refresh_count
        )
        if status.certificate_ok is not None:
            registry.gauge("integrity.certificate_ok", labels=labels).set(
                1 if status.certificate_ok else 0
            )


def format_status(statuses: Iterable[ViewStatus]) -> str:
    """The fleet-wide status table ``repro status`` prints."""
    header = (
        f"{'view':<12} {'rows':>8} {'cert':<18} {'ok':<4} "
        f"{'run':>4} {'kind':<16} {'stale_s':>8} {'+pend':>6} {'-pend':>6}"
    )
    lines = [header, "-" * len(header)]
    for status in statuses:
        if status.certificate_ok is None:
            verdict = "?"
        else:
            verdict = "ok" if status.certificate_ok else "DRIFT"
        run_id = status.freshness.last_refresh_run_id
        lines.append(
            f"{status.name:<12} {status.rows:>8,} "
            f"{status.certificate:<18} {verdict:<4} "
            f"{run_id if run_id is not None else '-':>4} "
            f"{status.freshness.last_refresh_kind or '-':<16} "
            f"{status.staleness_seconds:>8.1f} "
            f"{status.pending_insertions:>6,} {status.pending_deletions:>6,}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Audits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ViewAuditResult:
    """One summary table's audit verdict."""

    name: str
    mode: str                        #: "full" or "sample"
    rows: int
    maintained: int                  #: incremental certificate
    stored: int                      #: certificate of the stored rows
    expected: int | None             #: certificate of recompute (full mode)
    expected_rows: int | None
    drilldown_checked: int
    parent: str | None
    #: Own-content check failures (these determine the verdict).
    failures: tuple[str, ...]
    #: All events, including non-verdict parent-mismatch warnings.
    events: tuple[IntegrityEvent, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


@dataclass
class AuditReport:
    """Outcome of one warehouse-wide integrity audit."""

    mode: str
    sample: int | None
    results: dict[str, ViewAuditResult] = field(default_factory=dict)
    ts: float = field(default_factory=time.time)

    @property
    def passed(self) -> bool:
        return all(result.ok for result in self.results.values())

    @property
    def failed_views(self) -> list[str]:
        return sorted(
            name for name, result in self.results.items() if not result.ok
        )

    @property
    def events(self) -> list[IntegrityEvent]:
        out: list[IntegrityEvent] = []
        for name in sorted(self.results):
            out.extend(self.results[name].events)
        return out

    def format(self) -> str:
        header = (
            f"{'view':<12} {'verdict':<8} {'rows':>8} {'checks':<44}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.results):
            result = self.results[name]
            drift = result.maintained != result.stored
            checks = ["cert:DRIFT" if drift else "cert:ok"]
            if result.expected is not None:
                stale = result.stored != result.expected
                checks.append("recompute:STALE" if stale else "recompute:ok")
            if result.drilldown_checked:
                failed = any(
                    e.kind == "drilldown-mismatch" for e in result.events
                )
                checks.append(
                    f"drilldown[{result.drilldown_checked}]:"
                    f"{'FAIL' if failed else 'ok'}"
                )
            if result.parent is not None:
                mismatch = any(
                    e.kind == "parent-mismatch" for e in result.events
                )
                checks.append(
                    f"parent({result.parent}):"
                    f"{'MISMATCH' if mismatch else 'ok'}"
                )
            lines.append(
                f"{name:<12} {result.verdict:<8} {result.rows:>8,} "
                f"{' '.join(checks):<44}"
            )
        for event in self.events:
            lines.append(
                f"[{event.severity}] {event.view}: {event.message}"
            )
        lines.append(
            f"verdict: {'PASS' if self.passed else 'FAIL'}"
            + (f" ({', '.join(self.failed_views)})" if not self.passed else "")
        )
        return "\n".join(lines)

    def to_record(self) -> dict[str, Any]:
        """The audit as one run-ledger record (``kind="audit"``)."""
        return {
            "kind": "audit",
            "mode": self.mode,
            "sample": self.sample,
            "passed": self.passed,
            "views": {
                name: {
                    "verdict": result.verdict,
                    "failures": list(result.failures),
                    "maintained": f"{result.maintained:016x}",
                    "stored": f"{result.stored:016x}",
                    "expected": (
                        f"{result.expected:016x}"
                        if result.expected is not None else None
                    ),
                    "rows": result.rows,
                    "drilldown_checked": result.drilldown_checked,
                }
                for name, result in sorted(self.results.items())
            },
            "events": [event.as_dict() for event in self.events],
        }


def _audit_view(
    view,
    parent_view,
    edge,
    sample: int | None,
    rng: random.Random,
) -> ViewAuditResult:
    """Audit one view.  *parent_view*/*edge* are the D-lattice derivation
    source when the parent is itself materialised (else ``None``)."""
    from ..core.recompute import recompute_groups
    from ..views.materialize import compute_rows

    name = view.definition.name
    mode = "full" if sample is None else "sample"
    failures: list[str] = []
    events: list[IntegrityEvent] = []
    rows = view.table.rows()
    arity = len(view.definition.group_by)

    maintained = view.certificate.value
    stored = rows_certificate(rows)
    if maintained != stored:
        failures.append("certificate-drift")
        events.append(IntegrityEvent(
            severity="critical", kind="certificate-drift", view=name,
            message=(
                f"maintained certificate {maintained:016x} != stored rows "
                f"certificate {stored:016x}: the stored table was mutated "
                "outside maintenance"
            ),
        ))

    expected: int | None = None
    expected_rows: int | None = None
    drilldown_checked = 0

    if sample is None:
        fresh = compute_rows(view.definition)
        expected = rows_certificate(fresh.rows())
        expected_rows = len(fresh)
        if stored != expected:
            failures.append("recompute-mismatch")
            events.append(IntegrityEvent(
                severity="critical", kind="recompute-mismatch", view=name,
                message=(
                    f"stored certificate {stored:016x} ({len(rows)} rows) "
                    f"!= recompute certificate {expected:016x} "
                    f"({expected_rows} rows): the view does not equal "
                    "rematerialisation from base data"
                ),
            ))
    else:
        k = min(sample, len(rows))
        sampled = rng.sample(rows, k) if k else []
        drilldown_checked = len(sampled)
        if sampled:
            # Whole rows, every aggregate folded from the group's fact
            # rows: refresh's recompute reads only MIN/MAX and trusts the
            # arithmetic for the rest, which is what this checks.
            derived, _counts = recompute_groups(
                view.definition, [row[:arity] for row in sampled],
                view.definition.aggregates,
            )
            bad = 0
            for row in sampled:
                values = derived.get(row[:arity])
                if values is None or row_digest(row) != row_digest(
                    row[:arity] + tuple(values)
                ):
                    bad += 1
            if bad:
                failures.append("drilldown-mismatch")
                events.append(IntegrityEvent(
                    severity="critical", kind="drilldown-mismatch",
                    view=name,
                    message=(
                        f"{bad} of {len(sampled)} sampled groups do not "
                        "match re-derivation from base facts"
                    ),
                ))

    if parent_view is not None and edge is not None:
        derived_table = edge.apply(parent_view.table)
        if sample is None:
            parent_cert = rows_certificate(derived_table.rows())
            mismatch = parent_cert != stored
        else:
            by_key = {row[:arity]: row for row in derived_table.rows()}
            checked = rng.sample(rows, min(sample, len(rows)))
            mismatch = any(
                (got := by_key.get(row[:arity])) is None
                or row_digest(got) != row_digest(row)
                for row in checked
            )
        if mismatch:
            events.append(IntegrityEvent(
                severity="warning", kind="parent-mismatch", view=name,
                message=(
                    f"rows derived from parent {parent_view.name!r} "
                    "(Theorem 5.1 edge query) disagree with the stored "
                    "rows: one endpoint of the edge is corrupt or stale"
                ),
            ))

    return ViewAuditResult(
        name=name,
        mode=mode,
        rows=len(rows),
        maintained=maintained,
        stored=stored,
        expected=expected,
        expected_rows=expected_rows,
        drilldown_checked=drilldown_checked,
        parent=parent_view.name if parent_view is not None else None,
        failures=tuple(failures),
        events=tuple(events),
    )


def audit_warehouse(
    warehouse: "Warehouse",
    sample: int | None = None,
    rng: random.Random | None = None,
    metrics=None,
    record: bool = True,
) -> AuditReport:
    """Audit every summary table; return per-view verdicts.

    ``sample=None`` runs the full audit (three-way certificate
    comparison per view); ``sample=k`` re-derives *k* random summary
    tuples per view from base facts instead.  Detected events are fed to
    the metrics registry unconditionally, and with *record* the report is
    appended to the active run ledger as a ``kind="audit"`` record.
    """
    from ..lattice.plan import build_lattice_for_views
    from ..obs import metrics as obs_metrics
    from ..obs import tracing
    from ..obs.ledger import active_ledger

    rng = rng if rng is not None else random.Random(0)
    report = AuditReport(
        mode="full" if sample is None else "sample", sample=sample
    )
    with tracing.span("audit", views=len(warehouse.views), mode=report.mode):
        for fact_name in sorted(warehouse.facts):
            views = warehouse.views_over(fact_name)
            if not views:
                continue
            by_name = {view.name: view for view in views}
            lattice = (
                build_lattice_for_views(views) if len(views) > 1 else None
            )
            for view in views:
                parent_view = edge = None
                if lattice is not None:
                    node = lattice.node(view.name)
                    if not node.is_root:
                        parent_view = by_name.get(node.parent)
                        edge = node.edge if parent_view is not None else None
                with tracing.span("audit:" + view.name):
                    report.results[view.name] = _audit_view(
                        view, parent_view, edge, sample, rng
                    )

    registry = metrics if metrics is not None else obs_metrics.registry()
    record_events(report.events, metrics=registry)
    registry.counter("integrity.audits").inc()
    registry.gauge("integrity.last_audit_ok").set(1 if report.passed else 0)
    for name, result in report.results.items():
        registry.gauge(
            "integrity.view_ok", labels={"view": name}
        ).set(1 if result.ok else 0)

    if record:
        ledger = active_ledger()
        if ledger is not None:
            ledger.append(report.to_record())
    return report


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------

CORRUPTION_KINDS = ("mutate", "drop", "phantom", "missed-delta")


def _pick_view(warehouse: "Warehouse", view_name: str | None):
    if view_name is not None:
        return warehouse.view(view_name)
    for name in sorted(warehouse.views):
        if len(warehouse.views[name].table):
            return warehouse.views[name]
    raise ValueError("no non-empty summary table to corrupt")


def _live_slots(table) -> list[int]:
    return [slot for slot, _row in table.slots()]


class _suppressed_observers:
    """Detach a table's observers for the block — mutations inside happen
    behind the certificate's back, exactly like storage corruption."""

    def __init__(self, table):
        self._table = table
        self._detached: tuple = ()

    def __enter__(self):
        self._detached = self._table.observers
        for observer in self._detached:
            self._table.detach_observer(observer)
        return self._table

    def __exit__(self, exc_type, exc, tb) -> bool:
        for observer in self._detached:
            self._table.attach_observer(observer)
        return False


def inject_corruption(
    warehouse: "Warehouse",
    kind: str,
    rng: random.Random | None = None,
    view_name: str | None = None,
) -> str:
    """Inject one corruption of *kind* into the warehouse; return a
    description of what was done.

    ``mutate``/``drop``/``phantom`` alter the chosen view's stored table
    with its certificate observers detached (simulating bit-rot or an
    out-of-band writer).  ``missed-delta`` stages a small change set,
    maintains every *other* view over the same fact table, and applies
    the base changes — leaving the target view internally consistent but
    stale, the signature of a delta that was never applied.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValueError(
            f"unknown corruption kind {kind!r}; expected one of "
            f"{CORRUPTION_KINDS}"
        )
    rng = rng if rng is not None else random.Random(0)
    view = _pick_view(warehouse, view_name)
    table = view.table
    arity = len(view.definition.group_by)

    if kind == "mutate":
        slots = _live_slots(table)
        slot = rng.choice(slots)
        row = list(table.row_at(slot))
        column = (
            rng.randrange(arity, len(row)) if len(row) > arity else 0
        )
        old_value = row[column]
        if old_value is None:
            row[column] = 1
        elif isinstance(old_value, (int, float)) and not isinstance(
            old_value, bool
        ):
            row[column] = old_value + 1
        else:
            row[column] = f"~{old_value}"
        with _suppressed_observers(table):
            table.update_slot(slot, tuple(row))
        return (
            f"mutate: view {view.name!r} slot {slot} column "
            f"{table.schema.columns[column]!r}: {old_value!r} -> "
            f"{row[column]!r}"
        )

    if kind == "drop":
        slots = _live_slots(table)
        slot = rng.choice(slots)
        with _suppressed_observers(table):
            dropped = table.delete_slot(slot)
        return f"drop: view {view.name!r} lost group {dropped[:arity]!r}"

    if kind == "phantom":
        donor = rng.choice(table.rows())
        index = view.group_key_index()
        phantom = None
        for attempt in range(1000):
            key = list(donor[:arity])
            if key:
                value = key[0]
                if isinstance(value, str):
                    key[0] = f"phantom-{attempt}"
                elif isinstance(value, (int, float)):
                    key[0] = -(10 ** 9) - attempt
                else:
                    key[0] = f"phantom-{attempt}"
            candidate = tuple(key) + donor[arity:]
            if index is None or index.lookup_one(tuple(key)) is None:
                phantom = candidate
                break
        if phantom is None:  # pragma: no cover - 1000 collisions
            raise ValueError("could not synthesise an unused group key")
        with _suppressed_observers(table):
            table.insert(phantom)
        return (
            f"phantom: view {view.name!r} gained fabricated group "
            f"{phantom[:arity]!r}"
        )

    # missed-delta
    from ..lattice.plan import maintain_lattice
    from ..obs.ledger import suspended_ledger
    from .changes import ChangeSet

    fact = view.definition.fact
    sample_rows = fact.table.rows()
    if not sample_rows:
        raise ValueError(f"fact table {fact.name!r} is empty")
    staged = [rng.choice(sample_rows) for _ in range(min(20, len(sample_rows)))]
    changes = ChangeSet(fact.name, fact.table.schema)
    changes.insert_many(staged)
    others = [
        other for other in warehouse.views_over(fact.name)
        if other.name != view.name
    ]
    with suspended_ledger():
        if others:
            maintain_lattice(others, changes)
        else:
            changes.apply_to(fact.table)
    return (
        f"missed-delta: {len(staged)} base insertions applied to "
        f"{fact.name!r} and refreshed into {len(others)} other view(s), "
        f"but never into {view.name!r}"
    )

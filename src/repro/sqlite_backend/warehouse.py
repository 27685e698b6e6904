"""The SQLite-backed warehouse: the paper's architecture on a real RDBMS.

This driver mirrors the paper's experimental implementation (summary-delta
maintenance scripted over Centura SQL): base, change, summary, and
summary-delta tables are SQLite tables; propagate executes the Section 4.1
SQL; refresh is the embedded-cursor program of Figures 2/7 — one indexed
lookup per delta tuple, per-group SQL recomputation for threatened MIN/MAX
extrema.

Only the paper's MIN/MAX policy is supported here (the SPLIT policy is an
engine-side extension).  The refresh *decision* is Figure 7's per-tuple
body, :func:`decide`, written out row by row apart from the in-memory
engine's column kernel (:func:`repro.core.refresh.decide_columns`) — it
takes both policies, so it is also the kernel's reference — and the
cross-validation tests assert the two backends produce identical summary
tables on identical workloads.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Any

from ..core.deltas import MinMaxPolicy
from ..core.refresh import RefreshPlan, RefreshStats
from ..errors import InconsistentDeltaError, MaintenanceError
from ..relational.types import null_max, null_min
from ..views.definition import SummaryViewDefinition
from ..warehouse.changes import ChangeSet
from ..warehouse.fact import FactTable
from .schema import (
    connect,
    create_index,
    create_table,
    load_fact,
    quote_identifier,
    sorted_rows,
    table_rows,
)
from .sqlgen import (
    group_recompute_sql,
    materialize_select_sql,
    summary_delta_select_sql,
)


Row = tuple[Any, ...]


def decide(
    plan: RefreshPlan,
    definition_name: str,
    old_row: Row | None,
    delta_row: Row,
    key: Row,
) -> tuple[str, Row | None]:
    """Figure 7's per-tuple body: ``(action, new row)`` for one delta
    tuple and its group's row (*old_row*; ``None``: updated from the
    empty group).  ``"recompute"`` rows still need their MIN/MAX from
    base data; ``"delete"`` and ``"none"`` (a cancelled delta on an
    absent group, §4.1.4) carry no row."""
    cs = plan.count_star_index
    held = old_row is not None
    if not held:
        old_row = key + plan.empty_aggregates
    count = None if delta_row[cs] is None else old_row[cs] + delta_row[cs]
    if count is None or count < 0:
        raise InconsistentDeltaError(
            f"view {definition_name!r}: group {key!r} COUNT(*) would become "
            f"{count}" if held else f"view {definition_name!r}: delta for "
            f"new group {key!r} has COUNT(*) {delta_row[cs]!r}"
        )
    new_row = list(old_row)
    for position in plan.counts:
        new_row[position] = old_row[position] + delta_row[position]
    for position, count in plan.sums:
        old_value, delta_value = old_row[position], delta_row[position]
        if new_row[count] == 0:
            new_row[position] = None
        elif old_value is None or delta_value is None:
            new_row[position] = delta_value if old_value is None else old_value
        else:
            new_row[position] = old_value + delta_value
    if new_row[cs] == 0:
        return ("delete" if held else "none"), None
    threatened = False
    for column in plan.minmax:
        old_extreme = old_row[column.storage_index]
        if new_row[column.count_index] == 0:
            new_row[column.storage_index] = None
            continue
        if plan.policy is MinMaxPolicy.SPLIT:
            incoming = delta_row[column.delta_ins_index]
            threat = delta_row[column.delta_del_index]
        else:
            incoming = threat = delta_row[column.storage_index]
        # Figure 7's recompute check (SPLIT: a deletion-side value counts
        # even where no extremum was stored).
        if threat is not None and (
            (threat <= old_extreme if column.is_min else threat >= old_extreme)
            if old_extreme is not None
            else plan.policy is MinMaxPolicy.SPLIT
        ):
            threatened = True
        fold = null_min if column.is_min else null_max
        new_row[column.storage_index] = fold(old_extreme, incoming)
    if threatened:
        return "recompute", tuple(new_row)
    return ("update" if held else "insert"), tuple(new_row)


@dataclass
class SqliteSummaryTable:
    """Bookkeeping for one summary table materialised in SQLite."""

    definition: SummaryViewDefinition
    table_name: str
    delta_name: str


class SqliteWarehouse:
    """A warehouse whose storage and propagate queries run inside SQLite."""

    def __init__(self, connection: sqlite3.Connection | None = None):
        self.connection = connection or connect()
        self.facts: dict[str, FactTable] = {}
        self.summaries: dict[str, SqliteSummaryTable] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load_fact(self, fact: FactTable) -> None:
        """Load a fact table and its dimensions into SQLite."""
        load_fact(self.connection, fact)
        self.facts[fact.name] = fact

    def define_summary_table(
        self, definition: SummaryViewDefinition
    ) -> SqliteSummaryTable:
        """Resolve, materialise (CREATE TABLE AS SELECT), and index a view."""
        resolved = definition if definition.is_resolved() else definition.resolved()
        if resolved.fact.name not in self.facts:
            raise MaintenanceError(
                f"fact table {resolved.fact.name!r} not loaded"
            )
        name = resolved.name
        self.connection.execute(
            f"DROP TABLE IF EXISTS {quote_identifier(name)}"
        )
        self.connection.execute(
            f"CREATE TABLE {quote_identifier(name)} AS\n"
            + materialize_select_sql(resolved)
        )
        if resolved.group_by:
            create_index(self.connection, name, list(resolved.group_by))
        summary = SqliteSummaryTable(
            definition=resolved,
            table_name=name,
            delta_name=f"sd_{name}",
        )
        self.summaries[name] = summary
        return summary

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def load_changes(self, changes: ChangeSet) -> None:
        """Stage a change set as ``{fact}_ins`` / ``{fact}_del`` tables."""
        fact = self.facts[changes.base_name]
        create_table(
            self.connection, f"{fact.name}_ins", fact.columns,
            changes.insertions.scan(),
        )
        create_table(
            self.connection, f"{fact.name}_del", fact.columns,
            changes.deletions.scan(),
        )

    def propagate(self, summary: SqliteSummaryTable) -> int:
        """Create the summary-delta table from the staged changes; return
        its row count.  Pure SQL — the paper's Section 4.1 query."""
        delta = summary.delta_name
        self.connection.execute(f"DROP TABLE IF EXISTS {quote_identifier(delta)}")
        self.connection.execute(
            f"CREATE TABLE {quote_identifier(delta)} AS\n"
            + summary_delta_select_sql(summary.definition)
        )
        (count,) = self.connection.execute(
            f"SELECT COUNT(*) FROM {quote_identifier(delta)}"
        ).fetchone()
        return count

    def apply_changes_to_base(self, fact_name: str) -> None:
        """Apply the staged change tables to the base fact table.

        Deletions follow bag semantics: each ``{fact}_del`` row removes one
        matching occurrence.  A deletion matching nothing raises
        :class:`~repro.errors.InconsistentDeltaError`.
        """
        fact = self.facts[fact_name]
        columns = fact.columns
        match = " AND ".join(
            f"{quote_identifier(column)} IS ?" for column in columns
        )
        fact_q = quote_identifier(fact_name)
        for row in self.connection.execute(
            f"SELECT * FROM {quote_identifier(fact_name + '_del')}"
        ).fetchall():
            cursor = self.connection.execute(
                f"DELETE FROM {fact_q} WHERE rowid = "
                f"(SELECT rowid FROM {fact_q} WHERE {match} LIMIT 1)",
                row,
            )
            if cursor.rowcount != 1:
                raise InconsistentDeltaError(
                    f"deferred deletion {row!r} matches no row in {fact_name!r}"
                )
        self.connection.execute(
            f"INSERT INTO {fact_q} SELECT * FROM "
            f"{quote_identifier(fact_name + '_ins')}"
        )

    def refresh(self, summary: SqliteSummaryTable) -> RefreshStats:
        """Figure 2 / Figure 7 over SQLite cursors.

        Iterates the summary-delta table; for each tuple, one indexed
        lookup into the summary table, then insert / update / delete —
        with per-group SQL recomputation from base data when a MIN/MAX
        extremum is threatened (the paper's own recompute strategy).
        """
        definition = summary.definition
        plan = RefreshPlan(definition, MinMaxPolicy.PAPER)
        stats = RefreshStats()
        view_q = quote_identifier(summary.table_name)
        group_by = list(definition.group_by)
        arity = len(group_by)
        storage_columns = list(definition.storage_schema().columns)

        if group_by:
            lookup_sql = (
                f"SELECT rowid, * FROM {view_q} WHERE "
                + " AND ".join(
                    f"{quote_identifier(column)} IS ?" for column in group_by
                )
            )
        else:
            lookup_sql = f"SELECT rowid, * FROM {view_q}"
        insert_sql = (
            f"INSERT INTO {view_q} VALUES "
            f"({', '.join('?' for _ in storage_columns)})"
        )
        update_sql = (
            f"UPDATE {view_q} SET "
            + ", ".join(f"{quote_identifier(c)} = ?" for c in storage_columns)
            + " WHERE rowid = ?"
        )
        recompute_sql = group_recompute_sql(definition)

        delta_rows = self.connection.execute(
            f"SELECT * FROM {quote_identifier(summary.delta_name)}"
        ).fetchall()
        stats.delta_rows = len(delta_rows)

        recomputes: list[tuple[int, tuple]] = []
        for delta_row in delta_rows:
            key = tuple(delta_row[:arity])
            matches = self.connection.execute(lookup_sql, key).fetchall()
            if len(matches) > 1:
                raise MaintenanceError(
                    f"summary table {summary.table_name!r} has duplicate "
                    f"rows for group {key!r}"
                )
            if matches:
                slot, old_row = matches[0][0], tuple(matches[0][1:])
            else:
                slot, old_row = None, None
            action, new_row = decide(
                plan, definition.name, old_row, tuple(delta_row), key
            )
            if action == "insert":
                self.connection.execute(insert_sql, new_row)
                stats.inserted += 1
            elif action == "delete":
                self.connection.execute(
                    f"DELETE FROM {view_q} WHERE rowid = ?", (slot,)
                )
                stats.deleted += 1
            elif action == "update":
                self.connection.execute(update_sql, new_row + (slot,))
                stats.updated += 1
            elif action == "recompute":
                recomputes.append((slot, key))

        # The whole group from one SQL query per group — the independent
        # oracle — not the update arithmetic.
        for slot, key in recomputes:
            fresh = self.connection.execute(recompute_sql, key).fetchone()
            if fresh is None or fresh[plan.count_star_index - arity] in (0, None):
                raise InconsistentDeltaError(
                    f"group {key!r} flagged for recomputation has no base "
                    "rows, but its COUNT(*) is positive"
                )
            self.connection.execute(update_sql, key + tuple(fresh) + (slot,))
            stats.recomputed += 1
        return stats

    def propagate_lattice(self) -> list[str]:
        """Compute all summary deltas exploiting the D-lattice, in SQL.

        Root deltas run the §4.1.2 query against the staged change tables;
        every other delta is derived from its parent's delta table through
        the Theorem 5.1 edge query rendered as SQL.  Returns the node names
        in evaluation order.
        """
        from ..lattice.vlattice import ViewLattice
        from .sqlgen import edge_delta_select_sql

        definitions = [summary.definition for summary in self.summaries.values()]
        size_hints = {
            name: self.connection.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(name)}"
            ).fetchone()[0]
            for name in self.summaries
        }
        lattice = ViewLattice.build(definitions, size_hints=size_hints)
        for name in lattice.order:
            node = lattice.node(name)
            summary = self.summaries[name]
            if node.is_root:
                self.propagate(summary)
            else:
                parent_delta = self.summaries[node.parent].delta_name
                delta = summary.delta_name
                self.connection.execute(
                    f"DROP TABLE IF EXISTS {quote_identifier(delta)}"
                )
                self.connection.execute(
                    f"CREATE TABLE {quote_identifier(delta)} AS\n"
                    + edge_delta_select_sql(node.edge, parent_delta)
                )
        return lattice.order

    def maintain(
        self, changes: ChangeSet, use_lattice: bool = False
    ) -> dict[str, RefreshStats]:
        """One nightly batch: stage → propagate all → apply base → refresh
        all.  Returns per-view refresh statistics.

        ``use_lattice=True`` derives child deltas from parent deltas in SQL
        (Theorem 5.1) instead of recomputing each from the change tables.
        """
        self.load_changes(changes)
        if use_lattice:
            self.propagate_lattice()
        else:
            for summary in self.summaries.values():
                self.propagate(summary)
        self.apply_changes_to_base(changes.base_name)
        return {
            name: self.refresh(summary)
            for name, summary in self.summaries.items()
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def rows(self, name: str) -> list[tuple]:
        return table_rows(self.connection, name)

    def sorted_rows(self, name: str) -> list[tuple]:
        return sorted_rows(self.connection, name)

    def rematerialize(self, summary: SqliteSummaryTable) -> None:
        """Recompute a summary table from base data, in place."""
        view_q = quote_identifier(summary.table_name)
        self.connection.execute(f"DELETE FROM {view_q}")
        self.connection.execute(
            f"INSERT INTO {view_q}\n" + materialize_select_sql(summary.definition)
        )

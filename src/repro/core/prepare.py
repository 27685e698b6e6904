"""Prepare-changes views: per-change aggregate sources (paper, Section 4.1.1).

The *prepare-insertions* (``pi_``) and *prepare-deletions* (``pd_``) views
project the deferred changes — after applying the view's dimension joins and
selection — onto the view's group-by attributes plus one *aggregate-source*
column per stored aggregate, derived per the paper's Table 1.  Their
``UNION ALL`` is *prepare-changes* (``pc_``), the input the summary delta is
aggregated from.

Under the ``SPLIT`` min/max policy two extra source columns per MIN/MAX
aggregate carry the value on the insertion side only / deletion side only
(null on the other side), so the delta can keep insertion and deletion
extrema apart.
"""

from __future__ import annotations

from ..relational.expressions import Expression, Literal
from ..relational.operators import project, select, union_all
from ..relational.table import Table
from ..views.definition import SummaryViewDefinition
from ..warehouse.changes import ChangeSet
from .deltas import MinMaxPolicy, del_column, ins_column, minmax_outputs


def source_column(name: str) -> str:
    """Prepare-view column carrying the aggregate source for output *name*."""
    return f"_{name}"


def _prepare_one_side(
    definition: SummaryViewDefinition,
    change_rows: Table,
    deletion: bool,
    policy: MinMaxPolicy,
) -> Table:
    """Build ``pi_view`` (deletion=False) or ``pd_view`` (deletion=True).

    *change_rows* shares the fact table's schema, so the view's dimension
    joins and WHERE clause apply to it unchanged.
    """
    joined = definition.fact.join_dimensions(
        change_rows, definition.dimensions, definition.referenced_columns()
    )
    if definition.where is not None:
        joined = select(joined, definition.where)

    outputs: list[tuple[str, Expression]] = [
        (attribute, _column_of(joined, attribute))
        for attribute in definition.group_by
    ]
    for output in definition.aggregates:
        source = (
            output.function.deletion_source()
            if deletion
            else output.function.insertion_source()
        )
        outputs.append((source_column(output.name), source))
    if policy is MinMaxPolicy.SPLIT:
        for output in minmax_outputs(definition):
            value = output.function.argument
            outputs.append(
                (ins_column(output.name), Literal(None) if deletion else value)
            )
            outputs.append(
                (del_column(output.name), value if deletion else Literal(None))
            )
    prefix = "pd" if deletion else "pi"
    return project(joined, outputs, name=f"{prefix}_{definition.name}")


def _column_of(table: Table, attribute: str) -> Expression:
    """Column reference helper (validates the attribute exists)."""
    from ..relational.expressions import Column

    table.schema.position(attribute)
    return Column(attribute)


def prepare_insertions(
    definition: SummaryViewDefinition,
    insertions: Table,
    policy: MinMaxPolicy = MinMaxPolicy.PAPER,
) -> Table:
    """The ``pi_view`` table for a batch of fact-table insertions."""
    return _prepare_one_side(definition, insertions, deletion=False, policy=policy)


def prepare_deletions(
    definition: SummaryViewDefinition,
    deletions: Table,
    policy: MinMaxPolicy = MinMaxPolicy.PAPER,
) -> Table:
    """The ``pd_view`` table for a batch of fact-table deletions."""
    return _prepare_one_side(definition, deletions, deletion=True, policy=policy)


def prepare_changes(
    definition: SummaryViewDefinition,
    changes: ChangeSet,
    policy: MinMaxPolicy = MinMaxPolicy.PAPER,
) -> Table:
    """The ``pc_view`` table: ``pi_view UNION ALL pd_view``."""
    parts = []
    if len(changes.insertions):
        parts.append(prepare_insertions(definition, changes.insertions, policy))
    if len(changes.deletions):
        parts.append(prepare_deletions(definition, changes.deletions, policy))
    if not parts:
        # An empty prepare-changes table with the right schema.
        parts.append(prepare_insertions(definition, changes.insertions, policy))
    return union_all(parts, name=f"pc_{definition.name}")

"""The physical group-by engine and its value reducers.

This module is deliberately low-level: it knows how to hash rows into groups
and fold per-column reducers over them, but knows nothing about the paper's
aggregate classification, self-maintainability, or summary deltas.  The
:mod:`repro.aggregates` package compiles paper-level aggregate functions
(``COUNT(*)``, ``SUM(expr)``, ...) down to the :class:`Reducer` objects
defined here.

Null semantics follow SQL: ``sum``/``min``/``max``/``count_non_null``
reducers skip null inputs; a group whose inputs were all null yields null
(count yields 0).

Semantics note — views with *no* group-by columns: SQL's scalar-aggregate
query returns one row even over an empty input, but the paper's refresh
algorithm deletes a group tuple when its ``COUNT(*)`` reaches zero.  To keep
maintained views and recomputed views identical we use *grouping* semantics
uniformly: a view over an empty input has zero rows, even when the group-by
list is empty.  (This matches ``GROUP BY ()`` producing no groups for no
input rows.)
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Sequence

from ..obs import tracing
from .expressions import Expression
from .schema import Schema
from .stats import charge_access
from .table import Table, transpose_rows


class Reducer:
    """A fold over the values of one column within one group.

    Every reducer here is *distributive* in the paper's sense: folding the
    whole input gives the same result as combining the folds of its parts.
    That property is what licenses pre-aggregation (§4.1.3) and
    delta-from-delta computation (§5.4).
    """

    def create(self) -> Any:
        """Return the initial accumulator state."""
        raise NotImplementedError

    def step(self, state: Any, value: Any) -> Any:
        """Fold *value* into *state*; return the new state."""
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        """Convert the final state into the output value."""
        return state


class SumReducer(Reducer):
    """SQL ``SUM``: skip nulls; all-null/empty group yields null."""

    def create(self) -> Any:
        return None

    def step(self, state: Any, value: Any) -> Any:
        if value is None:
            return state
        if state is None:
            return value
        return state + value


class CountRowsReducer(Reducer):
    """SQL ``COUNT(*)``: counts rows, ignores the (unused) input value."""

    def create(self) -> int:
        return 0

    def step(self, state: int, value: Any) -> int:
        return state + 1


class CountNonNullReducer(Reducer):
    """SQL ``COUNT(expr)``: counts non-null input values."""

    def create(self) -> int:
        return 0

    def step(self, state: int, value: Any) -> int:
        if value is None:
            return state
        return state + 1


class MinReducer(Reducer):
    """SQL ``MIN``: skip nulls; all-null/empty group yields null."""

    def create(self) -> Any:
        return None

    def step(self, state: Any, value: Any) -> Any:
        if value is None:
            return state
        if state is None or value < state:
            return value
        return state


class MaxReducer(Reducer):
    """SQL ``MAX``: skip nulls; all-null/empty group yields null."""

    def create(self) -> Any:
        return None

    def step(self, state: Any, value: Any) -> Any:
        if value is None:
            return state
        if state is None or value > state:
            return value
        return state


#: One aggregate column in a group-by: (output name, input expression, reducer).
AggregateSpec = tuple[str, Expression, Reducer]

#: Cache of compiled fold loops, keyed by (schema, keys, aggregate shape).
#: Misses (unsupported specs) are cached as None so the fallback decision is
#: also O(1).  Concurrent writes are benign: both threads compute the same
#: value for the same key.
_compile_cache: dict[tuple, Any] = {}


def _compiled_fold(schema: Schema, keys: Sequence[str],
                   aggregates: Sequence[AggregateSpec]):
    """The cached compiled fold for this call shape, or ``None``."""
    from .codegen import codegen_enabled, compile_aggregation

    if not codegen_enabled():
        return None
    try:
        cache_key = (
            schema.columns,
            tuple(keys),
            tuple((expr._key(), type(reducer)) for _n, expr, reducer in aggregates),
        )
    except TypeError:  # unhashable literal somewhere in an expression
        compiled = compile_aggregation(schema, keys, aggregates)
        return compiled.fold if compiled is not None else None
    if cache_key not in _compile_cache:
        compiled = compile_aggregation(schema, keys, aggregates)
        _compile_cache[cache_key] = compiled.fold if compiled is not None else None
    return _compile_cache[cache_key]


def _compiled_batch_fold(schema: Schema, keys: Sequence[str],
                         aggregates: Sequence[AggregateSpec]):
    """The cached batch (columnar) fold for this call shape, or ``None``."""
    from .codegen import codegen_enabled, compile_batch_aggregation

    if not codegen_enabled():
        return None
    try:
        cache_key = (
            "batch",
            schema.columns,
            tuple(keys),
            tuple((expr._key(), type(reducer)) for _n, expr, reducer in aggregates),
        )
    except TypeError:  # unhashable literal somewhere in an expression
        compiled = compile_batch_aggregation(schema, keys, aggregates)
        return compiled.fold_columns if compiled is not None else None
    if cache_key not in _compile_cache:
        compiled = compile_batch_aggregation(schema, keys, aggregates)
        _compile_cache[cache_key] = (
            compiled.fold_columns if compiled is not None else None
        )
    return _compile_cache[cache_key]


def _fold_rows(
    schema: Schema,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    rows: Sequence[tuple],
    compiled: bool | None = None,
) -> dict[tuple[Any, ...], list[Any]]:
    """Fold *rows* into a ``{key tuple: state list}`` dict.

    Uses the compiled fold loop when available (see
    :mod:`repro.relational.codegen`); the interpreted loop otherwise, and
    always when ``compiled=False``.  Both produce identical state dicts.
    """
    if compiled is not False:
        fold = _compiled_fold(schema, keys, aggregates)
        if fold is not None:
            return fold(rows, {})
        if compiled is True:
            raise ValueError(
                "compiled aggregation requested but this aggregate list is "
                "outside the codegen subset (or REPRO_CODEGEN=0)"
            )

    key_positions = schema.positions(keys)
    evaluators: list[Callable] = [expr.bind(schema) for _n, expr, _r in aggregates]
    reducers: list[Reducer] = [reducer for _n, _e, reducer in aggregates]
    steps = [reducer.step for reducer in reducers]
    n_aggs = len(aggregates)

    groups: dict[tuple[Any, ...], list[Any]] = {}
    for row in rows:
        key = tuple(row[p] for p in key_positions)
        states = groups.get(key)
        if states is None:
            states = [reducer.create() for reducer in reducers]
            groups[key] = states
        for i in range(n_aggs):
            states[i] = steps[i](states[i], evaluators[i](row))
    return groups


def _finalize(
    group_keys: Collection[tuple[Any, ...]],
    states: Sequence[Sequence[Any]],
    table_name: str,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    name: str | None,
    default_prefix: str,
    storage: str | None = None,
) -> Table:
    """Build the output table from folded group states: the groups' key
    tuples (sized and re-iterable, first-occurrence order) and one state
    column per aggregate, in step with them.

    A batch fold hands over its accumulators as they are; a fold that
    kept a state list per group passes ``groups.keys()`` and
    ``transpose_rows(groups.values(), n_aggs)``.  *storage* selects the
    output backing (aggregation outputs inherit their input's, so
    columnar pipelines stay columnar end to end).  The keys are
    transposed (:func:`~repro.relational.table.transpose_rows`) and
    appended with the state columns as one batch — a reducer whose
    ``finalize`` is not the identity (all five built-ins' is) has its
    column mapped through it first — so no per-group output tuple is
    ever built.
    """
    out_schema = Schema(list(keys) + [output for output, _e, _r in aggregates])
    result = Table(name or f"{default_prefix}({table_name})", out_schema,
                   storage=storage)
    if not group_keys:
        return result
    finals = [
        column if type(reducer).finalize is Reducer.finalize
        else list(map(reducer.finalize, column))
        for (_n, _e, reducer), column in zip(aggregates, states)
    ]
    result.append_batch([*transpose_rows(group_keys, len(keys)), *finals])
    return result


def _scanned_rows(table: Table) -> list[tuple]:
    """Materialise the table's live rows, charging the scan in one step
    (the aggregation loops below always consume every row, so bulk
    accounting matches per-row accounting)."""
    rows = table.rows()
    charge_access("rows_scanned", len(rows))
    return rows


def group_by(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    name: str | None = None,
    *,
    compiled: bool | None = None,
) -> Table:
    """Hash-aggregate *table*, grouping on *keys*.

    The output schema is the key columns followed by the aggregate output
    columns.  Groups appear in order of first occurrence.  An empty input
    yields an empty output (see the module docstring for the no-key case).

    The fold loop is compiled to flat code when every expression and
    reducer is in the codegen subset (see :mod:`repro.relational.codegen`);
    pass ``compiled=False`` to force the interpreted loop, ``compiled=True``
    to insist on compilation (raises ``ValueError`` if unavailable).  A
    columnar input additionally takes the batch kernel
    (:func:`~repro.relational.codegen.compile_batch_aggregation`): key
    columns are extracted once and one pass over them folds identical
    states into one accumulator list per aggregate, which become the
    output's columns — no row tuple and no state container per group.
    """
    with tracing.span("group_by", table=table.name) as sp:
        if table.storage == "column" and compiled is not False:
            fold_columns = _compiled_batch_fold(table.schema, keys, aggregates)
            if fold_columns is not None:
                n = len(table)
                charge_access("rows_scanned", n)
                group_keys, states = fold_columns(table.columns(), n)
                sp.add("rows_in", n)
                sp.add("groups_out", len(group_keys))
                return _finalize(group_keys, states, table.name, keys,
                                 aggregates, name, "groupby",
                                 storage=table.storage)
        rows = _scanned_rows(table)
        groups = _fold_rows(table.schema, keys, aggregates, rows, compiled)
        sp.add("rows_in", len(rows))
        sp.add("groups_out", len(groups))
        return _finalize(
            groups.keys(), transpose_rows(groups.values(), len(aggregates)),
            table.name, keys, aggregates, name, "groupby",
            storage=table.storage,
        )

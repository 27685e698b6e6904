"""The physical group-by engine and its value reducers.

This module is deliberately low-level: it knows how to hash rows into groups
and fold per-column reducers over them, but knows nothing about the paper's
aggregate classification, self-maintainability, or summary deltas.  The
:mod:`repro.aggregates` package compiles paper-level aggregate functions
(``COUNT(*)``, ``SUM(expr)``, ...) down to the :class:`Reducer` objects
defined here.

A group-by folds its input's columns one of two ways: the batch kernel
compiled by :mod:`repro.relational.codegen`, or — for a shape outside the
codegen subset — the interpreted fold, :func:`_fold_interpreted`, which is
also the reference the kernel is tested against.  Both produce the same
groups, in the same order, with the same states.

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

#: Cache of compiled batch folds, keyed by (schema, keys, aggregate shape).
#: Misses (unsupported specs) are cached as None so the fallback decision is
#: also O(1).  Concurrent writes are benign: both threads compute the same
#: value for the same key.
_compile_cache: dict[tuple, Any] = {}


def _compiled_batch_fold(schema: Schema, keys: Sequence[str],
                         aggregates: Sequence[AggregateSpec]):
    """The cached batch (columnar) fold for this call shape, or ``None``."""
    from .codegen import compile_batch_aggregation

    try:
        cache_key = (
            schema.columns,
            tuple(keys),
            tuple((expr._key(), type(reducer)) for _n, expr, reducer in aggregates),
        )
        hash(cache_key)
    except TypeError:  # unhashable literal somewhere in an expression
        compiled = compile_batch_aggregation(schema, keys, aggregates)
        return compiled.fold_columns if compiled is not None else None
    if cache_key not in _compile_cache:
        compiled = compile_batch_aggregation(schema, keys, aggregates)
        _compile_cache[cache_key] = (
            compiled.fold_columns if compiled is not None else None
        )
    return _compile_cache[cache_key]


def _fold_interpreted(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> dict[tuple[Any, ...], list[Any]]:
    """Fold *table* into a ``{key tuple: state list}`` dict, one bound
    expression and one ``Reducer.step`` call per row and aggregate.

    The fallback for shapes outside the codegen subset (a user
    :class:`Reducer`, ``And``/``Or``/``Not``, ``COUNT(*)`` over a computed
    expression) and the reference the batch kernel is tested against.
    Uncharged: the caller charges the scan.
    """
    schema = table.schema
    key_positions = schema.positions(keys)
    evaluators: list[Callable] = [expr.bind(schema) for _n, expr, _r in aggregates]
    reducers: list[Reducer] = [reducer for _n, _e, reducer in aggregates]
    steps = [reducer.step for reducer in reducers]
    n_aggs = len(aggregates)

    groups: dict[tuple[Any, ...], list[Any]] = {}
    for row in zip(*table.columns()):
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
) -> Table:
    """Build the output table from folded group states: the groups' key
    tuples (sized and re-iterable, first-occurrence order) and one state
    column per aggregate, in step with them.

    A batch fold hands over its accumulators as they are; the
    interpreted fold, which keeps a state list per group, passes
    ``groups.keys()`` and ``transpose_rows(groups.values(), n_aggs)``.
    The keys are
    transposed (:func:`~repro.relational.table.transpose_rows`) and
    appended with the state columns as one batch — a reducer whose
    ``finalize`` is not the identity (all five built-ins' is) has its
    column mapped through it first — so no per-group output tuple is
    ever built.
    """
    out_schema = Schema(list(keys) + [output for output, _e, _r in aggregates])
    result = Table(name or f"{default_prefix}({table_name})", out_schema)
    if not group_keys:
        return result
    finals = [
        column if type(reducer).finalize is Reducer.finalize
        else list(map(reducer.finalize, column))
        for (_n, _e, reducer), column in zip(aggregates, states)
    ]
    result.append_batch([*transpose_rows(group_keys, len(keys)), *finals])
    return result


def group_by(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    name: str | None = None,
) -> Table:
    """Hash-aggregate *table*, grouping on *keys*.

    The output schema is the key columns followed by the aggregate output
    columns.  Groups appear in order of first occurrence.  An empty input
    yields an empty output (see the module docstring for the no-key case).

    When every expression and reducer is in the codegen subset the fold
    is the batch kernel
    (:func:`~repro.relational.codegen.compile_batch_aggregation`): key
    columns are extracted once and one pass over them folds identical
    states into one accumulator list per aggregate, which become the
    output's columns — no row tuple and no state container per group.
    Any other shape takes the interpreted fold, which produces the same
    groups, states and access charges.
    """
    with tracing.span("group_by", table=table.name) as sp:
        n = len(table)
        charge_access("rows_scanned", n)
        sp.add("rows_in", n)
        fold_columns = _compiled_batch_fold(table.schema, keys, aggregates)
        if fold_columns is not None:
            group_keys, states = fold_columns(table.columns(), n)
        else:
            groups = _fold_interpreted(table, keys, aggregates)
            group_keys = groups.keys()
            states = transpose_rows(groups.values(), len(aggregates))
        sp.add("groups_out", len(group_keys))
        return _finalize(group_keys, states, table.name, keys, aggregates,
                         name, "groupby")

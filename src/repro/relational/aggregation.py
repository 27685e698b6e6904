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

import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from ..obs import metrics as obs_metrics
from ..obs import tracing
from .expressions import Expression
from .schema import Schema
from .stats import charge_access
from .table import Table, transpose_rows


class Reducer:
    """A fold over the values of one column within one group.

    Every reducer here is *distributive* in the paper's sense, witnessed by
    :meth:`merge`: folding the whole input equals folding each part and
    merging the partial states.  That property is what licenses
    pre-aggregation (§4.1.3), delta-from-delta computation (§5.4), and the
    chunked/parallelisable aggregation of :func:`group_by_chunked`.
    """

    def create(self) -> Any:
        """Return the initial accumulator state."""
        raise NotImplementedError

    def step(self, state: Any, value: Any) -> Any:
        """Fold *value* into *state*; return the new state."""
        raise NotImplementedError

    def merge(self, state: Any, other: Any) -> Any:
        """Combine two partial states (distributivity witness)."""
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

    def merge(self, state: Any, other: Any) -> Any:
        if state is None:
            return other
        if other is None:
            return state
        return state + other


class CountRowsReducer(Reducer):
    """SQL ``COUNT(*)``: counts rows, ignores the (unused) input value."""

    def create(self) -> int:
        return 0

    def step(self, state: int, value: Any) -> int:
        return state + 1

    def merge(self, state: int, other: int) -> int:
        return state + other


class CountNonNullReducer(Reducer):
    """SQL ``COUNT(expr)``: counts non-null input values."""

    def create(self) -> int:
        return 0

    def step(self, state: int, value: Any) -> int:
        if value is None:
            return state
        return state + 1

    def merge(self, state: int, other: int) -> int:
        return state + other


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

    def merge(self, state: Any, other: Any) -> Any:
        if state is None:
            return other
        if other is None:
            return state
        return state if state <= other else other


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

    def merge(self, state: Any, other: Any) -> Any:
        if state is None:
            return other
        if other is None:
            return state
        return state if state >= other else other


#: One aggregate column in a group-by: (output name, input expression, reducer).
AggregateSpec = tuple[str, Expression, Reducer]

#: Executor backends accepted by :func:`group_by_chunked`.
BACKENDS = ("serial", "thread", "process")

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
    groups: dict[tuple[Any, ...], list[Any]],
    table_name: str,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    name: str | None,
    default_prefix: str,
    storage: str | None = None,
) -> Table:
    """Build the output table from folded group states.

    *storage* selects the output backing (aggregation outputs inherit their
    input's, so columnar pipelines stay columnar end to end).  When the
    output is columnar and every reducer's ``finalize`` is the identity
    (true for all five built-ins), the states are transposed straight into
    column batches (:func:`~repro.relational.table.transpose_rows`) — no
    per-group output tuple is ever built.
    """
    reducers: list[Reducer] = [reducer for _n, _e, reducer in aggregates]
    n_aggs = len(aggregates)
    out_schema = Schema(list(keys) + [output for output, _e, _r in aggregates])
    result = Table(name or f"{default_prefix}({table_name})", out_schema,
                   storage=storage)
    if (
        groups
        and result.storage == "column"
        and all(type(r).finalize is Reducer.finalize for r in reducers)
    ):
        result.append_batch([
            *transpose_rows(groups.keys(), len(keys)),
            *transpose_rows(groups.values(), n_aggs),
        ])
        return result
    result.insert_many(
        key + tuple(reducers[i].finalize(states[i]) for i in range(n_aggs))
        for key, states in groups.items()
    )
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
    columns are extracted once, the batch is hashed once, and one linear
    gather-and-reduce pass per group produces identical states without ever
    materialising row tuples.
    """
    with tracing.span("group_by", table=table.name) as sp:
        if table.storage == "column" and compiled is not False:
            fold_columns = _compiled_batch_fold(table.schema, keys, aggregates)
            if fold_columns is not None:
                n = len(table)
                charge_access("rows_scanned", n)
                groups = fold_columns(table.columns(), n)
                sp.add("rows_in", n)
                sp.add("groups_out", len(groups))
                return _finalize(groups, table.name, keys, aggregates, name,
                                 "groupby", storage=table.storage)
        rows = _scanned_rows(table)
        groups = _fold_rows(table.schema, keys, aggregates, rows, compiled)
        sp.add("rows_in", len(rows))
        sp.add("groups_out", len(groups))
        return _finalize(groups, table.name, keys, aggregates, name, "groupby",
                         storage=table.storage)


def _chunk_bounds(n_rows: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_rows)`` into at most *chunks* non-empty slices.

    Balanced sizes (they differ by at most one row), and never more slices
    than rows — ``chunks > n_rows`` must not create empty trailing tasks,
    which on an executor would be pure dispatch overhead.
    """
    effective = min(chunks, n_rows)
    if effective == 0:
        return []
    base, extra = divmod(n_rows, effective)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(effective):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _process_chunk_task(
    columns: tuple[str, ...],
    keys: tuple[str, ...],
    aggregates: Sequence[AggregateSpec],
    rows: list[tuple],
) -> dict[tuple[Any, ...], list[Any]]:
    """Fold one chunk in a worker process.

    Module-level so it pickles; the worker re-resolves the compiled fold
    from its own (per-process) cache.  States travel back as plain lists of
    plain values, so merging in the parent is backend-agnostic.
    """
    return _fold_rows(Schema(columns), keys, aggregates, rows)


def group_by_chunked(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    chunks: int = 4,
    name: str | None = None,
    *,
    backend: str = "serial",
    max_workers: int | None = None,
    compiled: bool | None = None,
) -> Table:
    """Hash-aggregate in independent input chunks, then merge partials.

    The realisation of the paper's remark that "techniques for
    parallelizing aggregation can be used to speed up computation of the
    summary-delta table" (§4.1.2): the input is split into at most *chunks*
    contiguous slices, each aggregated independently, and per-group partial
    states are merged with each reducer's distributive
    :meth:`~Reducer.merge`.

    *backend* selects where chunk folds run:

    ``"serial"``
        In the calling thread, one chunk after another (the demonstrated
        decomposition; zero dispatch overhead).
    ``"thread"``
        On a ``ThreadPoolExecutor``.  Low overhead; true overlap only to
        the extent the fold releases the GIL, so this is the low-risk
        option rather than the big-win option in CPython.
    ``"process"``
        On a ``ProcessPoolExecutor``: chunk rows and aggregate specs are
        pickled to worker processes and partial states pickled back.  Real
        multi-core scaling for large inputs, at per-row serialisation cost.

    Partials are merged in chunk order regardless of backend, so the output
    (content *and* group order: first occurrence) is identical to
    :func:`group_by` on any input and any chunk count.
    """
    if not isinstance(chunks, int) or isinstance(chunks, bool) or chunks < 1:
        raise ValueError(f"chunks must be a positive integer, got {chunks!r}")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")

    with tracing.span(
        "group_by_chunked", table=table.name, backend=backend,
    ) as sp:
        rows = _scanned_rows(table)
        bounds = _chunk_bounds(len(rows), chunks)
        sp.add("rows_in", len(rows))
        sp.add("chunks", len(bounds))
        if tracing.enabled():
            chunk_histogram = obs_metrics.registry().histogram(
                "aggregation.chunk_rows"
            )
            for start, stop in bounds:
                chunk_histogram.observe(stop - start)
        schema = table.schema
        reducers: list[Reducer] = [reducer for _n, _e, reducer in aggregates]
        n_aggs = len(aggregates)

        partials: list[dict[tuple[Any, ...], list[Any]]]
        if backend == "serial" or len(bounds) <= 1:
            partials = [
                _fold_rows(schema, keys, aggregates, rows[start:stop], compiled)
                for start, stop in bounds
            ]
        else:
            executor: Executor
            if backend == "thread":
                # Queue wait = dispatch-to-start latency per chunk, observable
                # only on the thread backend (process workers have their own
                # monotonic clocks, not comparable to ours).
                dispatched = time.perf_counter()
                observe_wait = tracing.enabled()

                def run_chunk(bound: tuple[int, int]):
                    if observe_wait:
                        obs_metrics.registry().histogram(
                            "executor.queue_wait_s"
                        ).observe(time.perf_counter() - dispatched)
                    return _fold_rows(
                        schema, keys, aggregates,
                        rows[bound[0]:bound[1]], compiled,
                    )

                with ThreadPoolExecutor(max_workers=max_workers) as executor:
                    partials = list(executor.map(run_chunk, bounds))
            else:  # process
                columns = schema.columns
                key_tuple = tuple(keys)
                with ProcessPoolExecutor(max_workers=max_workers) as executor:
                    partials = list(
                        executor.map(
                            _process_chunk_task,
                            (columns for _ in bounds),
                            (key_tuple for _ in bounds),
                            (aggregates for _ in bounds),
                            (rows[start:stop] for start, stop in bounds),
                        )
                    )

        merged: dict[tuple[Any, ...], list[Any]] = {}
        for partial in partials:
            if not merged:
                merged = partial
                continue
            for key, states in partial.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = states
                else:
                    for i in range(n_aggs):
                        existing[i] = reducers[i].merge(existing[i], states[i])

        sp.add("groups_out", len(merged))
        return _finalize(
            merged, table.name, keys, aggregates, name, "groupby_chunked",
            storage=table.storage,
        )

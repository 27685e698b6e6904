"""Physical relational operators: select, project, hash join, union.

These are the building blocks the maintenance algorithms are written in.
Each operator consumes :class:`~repro.relational.table.Table` objects (or raw
row iterables where noted) and produces a new table; none of them mutate
their inputs.

The join is a classic build/probe hash equi-join.  When the right side has
a unique hash index on the join columns the join is charged as index probes,
matching the paper's setup where joins between the fact table and dimension
tables run along indexed foreign keys.

The operators work on columns: selection and projection evaluate
expressions column-wise through a compiled
:class:`~repro.relational.codegen.ColumnKernel`, union concatenates column
batches, and the unique-index join resolves a whole foreign-key column to
right-row positions and gathers each right column through them — no row
tuple is built, and the columns an operator produced become its result's
storage as they are (``Table.adopt_batch``).  A predicate or expression
outside the kernel subset (``And``/``Or``/``Not``) is evaluated row by row
through ``Expression.bind``, and a join without a unique right-side index
hashes the smaller input; both charge the same access counts, so results,
access accounting and cost-model predictions are identical either way.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Sequence

from ..errors import TableError
from .expressions import Expression
from .schema import Schema
from .table import Row, Table, charge_access

#: Cache of compiled column kernels, keyed by (schema, expression shapes).
#: Misses cached as None so the fallback decision is O(1).
_column_kernel_cache: dict[tuple, Any] = {}


def _column_kernel(schema: Schema, expressions: Sequence[Expression]):
    """The cached column kernel for these expressions, or ``None``."""
    from .codegen import compile_column_kernel

    try:
        cache_key = (
            schema.columns,
            tuple(expr._key() for expr in expressions),
        )
        hash(cache_key)
    except TypeError:  # unhashable literal somewhere in an expression
        kernel = compile_column_kernel(expressions, schema)
        return kernel.eval_columns if kernel is not None else None
    if cache_key not in _column_kernel_cache:
        kernel = compile_column_kernel(expressions, schema)
        _column_kernel_cache[cache_key] = (
            kernel.eval_columns if kernel is not None else None
        )
    return _column_kernel_cache[cache_key]


def select(table: Table, predicate: Expression, name: str | None = None) -> Table:
    """Return the rows of *table* satisfying *predicate*."""
    result = Table(name or f"select({table.name})", table.schema)
    eval_columns = _column_kernel(table.schema, [predicate])
    if eval_columns is not None:
        n = len(table)
        charge_access("rows_scanned", n)
        columns = table.columns()
        mask = eval_columns(columns, n)[0]
        keep = [i for i, passed in enumerate(mask) if passed]
        if len(keep) == n:
            result.append_batch(columns)
        elif keep:
            result.adopt_batch(
                [list(map(col.__getitem__, keep)) for col in columns]
            )
        return result
    test = predicate.bind(table.schema)
    result.insert_many(row for row in table.scan() if test(row))
    return result


def project(
    table: Table,
    outputs: Sequence[tuple[str, Expression]],
    name: str | None = None,
) -> Table:
    """Project (and compute) columns: each output is ``(name, expression)``.

    Bag semantics — duplicates are kept, as in SQL ``SELECT`` without
    ``DISTINCT``.
    """
    schema = Schema([output_name for output_name, _expr in outputs])
    result = Table(name or f"project({table.name})", schema)
    eval_columns = _column_kernel(
        table.schema, [expr for _name, expr in outputs]
    )
    if eval_columns is not None:
        n = len(table)
        charge_access("rows_scanned", n)
        if n:
            # A plain column reference passes the input's own storage
            # through: the result adopts a slice of it instead.
            columns = table.columns()
            borrowed = set(map(id, columns))
            result.adopt_batch([
                col[:] if id(col) in borrowed else col
                for col in eval_columns(columns, n)
            ])
        return result
    evaluators = [expr.bind(table.schema) for _name, expr in outputs]
    result.insert_many(
        tuple(evaluate(row) for evaluate in evaluators) for row in table.scan()
    )
    return result


def distinct(table: Table, name: str | None = None) -> Table:
    """Return *table* with duplicate rows removed (order of first occurrence)."""
    seen: set[Row] = set()
    result = Table(name or f"distinct({table.name})", table.schema)
    for row in table.scan():
        if row not in seen:
            seen.add(row)
            result.insert(row)
    return result


def union_all(tables: Sequence[Table], name: str | None = None) -> Table:
    """SQL ``UNION ALL``: concatenate tables with identical schemas."""
    if not tables:
        raise TableError("union_all requires at least one input table")
    schema = tables[0].schema
    for table in tables[1:]:
        if table.schema != schema:
            raise TableError(
                f"union_all schema mismatch: {list(schema.columns)} vs "
                f"{list(table.schema.columns)}"
            )
    result = Table(name or "union_all", schema)
    for table in tables:
        if len(table):
            charge_access("rows_scanned", len(table))
            result.append_batch(table.columns())
    return result


def hash_join(
    left: Table,
    right: Table,
    on: Sequence[tuple[str, str]],
    name: str | None = None,
    right_columns: Sequence[str] | None = None,
) -> Table:
    """Equi-join *left* and *right* on pairs of ``(left_col, right_col)``.

    A right side with a unique index on its join columns is joined by
    gather (see below) and charged one ``index_lookups`` per non-null left
    key.  Only unique indexes are used: with a non-unique index, or none,
    the smaller side is hashed and both sides are charged as scans.  Join
    keys containing SQL null never match, per SQL semantics.  The output schema
    is the left schema followed by the right schema — or by just
    *right_columns* of it, when given — with conflicting right-side names
    prefixed by the right table's name.
    """
    if not on:
        raise TableError("hash_join requires at least one join column pair")
    left_cols = [pair[0] for pair in on]
    right_cols = [pair[1] for pair in on]
    left_positions = left.schema.positions(left_cols)
    right_positions = right.schema.positions(right_cols)
    carried = right.schema.columns if right_columns is None \
        else tuple(right_columns)
    carried_positions = right.schema.positions(carried)

    def right_part(row: Row) -> Row:
        if right_columns is None:
            return row
        return tuple(row[p] for p in carried_positions)

    out_schema = left.schema.concat(
        Schema(carried), prefix_conflicts=right.name
    ) if carried else left.schema
    result = Table(name or f"join({left.name},{right.name})", out_schema)

    right_index = right.index_on(right_cols)
    if right_index is not None and right_index.unique:
        # Gather join: resolve the whole foreign-key column to positions in
        # the right side's live columns through one key → position dict (a
        # unique index means one row per key), then gather each carried
        # right column through them; charged as one index lookup per
        # non-null key.  Null keys never probe and never match.
        single = len(on) == 1
        n = len(left)
        charge_access("rows_scanned", n)
        right_keys = right.columns(right_cols)
        left_keys = left.columns(left_cols)
        if single:
            position_of = dict(zip(right_keys[0], range(len(right))))
            position_of.pop(None, None)
            keys = left_keys[0]
            probes = n if isinstance(keys, array) else n - keys.count(None)
        else:
            position_of = {
                key: position
                for position, key in enumerate(zip(*right_keys))
                if None not in key
            }
            keys = list(zip(*left_keys))
            probes = n - sum(None in key for key in keys)
        charge_access("index_lookups", probes)
        matches = list(map(position_of.get, keys))
        out_left = left.columns()
        if None in matches:
            hits = [i for i, match in enumerate(matches) if match is not None]
            matches = list(map(matches.__getitem__, hits))
            out_left = [list(map(col.__getitem__, hits)) for col in out_left]
        else:
            out_left = [col[:] for col in out_left]
        if matches:
            result.adopt_batch(out_left + [
                list(map(col.__getitem__, matches))
                for col in right.columns(carried)
            ])
        return result

    # Otherwise build a transient hash table on the smaller input.
    if len(right) <= len(left):
        build, build_positions = right, right_positions
        probe, probe_positions = left, left_positions
        build_is_right = True
    else:
        build, build_positions = left, left_positions
        probe, probe_positions = right, right_positions
        build_is_right = False

    buckets: dict[tuple[Any, ...], list[Row]] = {}
    for row in build.scan():
        key = tuple(row[p] for p in build_positions)
        if any(value is None for value in key):
            continue
        buckets.setdefault(key, []).append(row)

    for probe_row in probe.scan():
        key = tuple(probe_row[p] for p in probe_positions)
        if any(value is None for value in key):
            continue
        for build_row in buckets.get(key, ()):
            if build_is_right:
                result.insert(probe_row + right_part(build_row))
            else:
                result.insert(build_row + right_part(probe_row))
    return result


def left_outer_join(
    left: Table,
    right: Table,
    on: Sequence[tuple[str, str]],
    name: str | None = None,
) -> Table:
    """Left outer equi-join; unmatched left rows pad the right side with nulls.

    The paper (Section 4.2) observes that refresh "can be thought of as a
    left outer-join between the summary-delta table and the summary table";
    :mod:`repro.core.refresh` runs that join a column at a time.
    """
    if not on:
        raise TableError("left_outer_join requires at least one join column pair")
    left_cols = [pair[0] for pair in on]
    right_cols = [pair[1] for pair in on]
    left_positions = left.schema.positions(left_cols)
    right.schema.positions(right_cols)  # validate

    out_schema = left.schema.concat(right.schema, prefix_conflicts=right.name)
    result = Table(name or f"louter({left.name},{right.name})", out_schema)
    null_pad = (None,) * len(right.schema)

    right_index = right.index_on(right_cols)
    if right_index is None:
        transient = right.copy()
        transient.create_index(right_cols)
        right_index = transient.index_on(right_cols)
        right_source: Table = transient
    else:
        right_source = right

    for left_row in left.scan():
        key = tuple(left_row[p] for p in left_positions)
        slots = [] if any(v is None for v in key) else right_index.lookup(key)
        if slots:
            for slot in slots:
                result.insert(left_row + right_source.row_at(slot))
        else:
            result.insert(left_row + null_pad)
    return result


def rows_from(schema: Schema | Iterable[str], rows: Iterable[Sequence[Any]],
              name: str = "inline") -> Table:
    """Build an ad-hoc table from raw rows (test and example helper)."""
    return Table(name, schema if isinstance(schema, Schema) else Schema(schema), rows)

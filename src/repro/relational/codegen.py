"""Compiling a whole ``group_by`` call into one flat column-wise function.

The interpreted fold evaluates every aggregate input through a tree of
per-row closures (`Expression.bind`) and dispatches every state update
through ``Reducer.step`` — four to eight Python calls per row per aggregate.
This module fuses *one* group-by call — key extraction, every aggregate
input expression, and every known reducer's step logic — into a single
generated source function over the input's columns that is ``compile()``d
once and then runs the entire fold without any per-row Python-level call
dispatch.  This is the "compile the delta pipeline down to flat code" idea
that DBToaster demonstrates for delta processing, applied to the paper's
summary-delta aggregation (§4.1.2).

Correctness contract: the generated code replicates, branch for branch, the
semantics of :mod:`repro.relational.types` null handling and of the five
distributive reducers in :mod:`repro.relational.aggregation`.  The states
it produces are exactly the states the interpreted fold produces, so they
are finalised with ``Reducer.finalize`` interchangeably.

Fallback contract: every ``compile_*`` entry point returns ``None`` whenever
it sees an expression node or reducer it cannot prove it reproduces exactly
(subclassed reducers, ``And``/``Or``/``Not`` predicates whose short-circuit
evaluation order is observable, ``COUNT(*)`` over a computed expression).
Callers keep the interpreted fold as the fallback, and the tests use it as
the kernels' reference.
"""

from __future__ import annotations

import functools as _functools
import operator as _operator
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .expressions import (
    Add,
    Case,
    Column,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Mul,
    Neg,
    Sub,
)
from .schema import Schema

__all__ = [
    "ColumnKernel",
    "CompiledBatchAggregation",
    "compile_batch_aggregation",
    "compile_column_kernel",
]

#: Literal types whose ``repr`` round-trips exactly in generated source.
_SAFE_LITERAL_TYPES = (int, float, str, bool, type(None))

#: Arithmetic nodes with NULL-propagating semantics (types.null_safe_*).
#: Exact types only: a subclass could override ``operation``.
_ARITH_NODES: dict[type, str] = {}  # populated below; Add/Sub/Mul -> operator

_ARITH_NODES[Add] = "+"
_ARITH_NODES[Sub] = "-"
_ARITH_NODES[Mul] = "*"

#: Comparison operators that are False when either operand is NULL.
_COMPARE_SYMBOLS = {"=": "==", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Unsupported(Exception):
    """Raised internally when an expression cannot be compiled exactly."""


def _reducer_kind(reducer: Any) -> str:
    """Map a reducer instance to its inline template, or raise.

    Exact-type checks only: a subclass may override ``step``, in which case
    the inline template would silently change semantics.
    """
    from .aggregation import (
        CountNonNullReducer,
        CountRowsReducer,
        MaxReducer,
        MinReducer,
        SumReducer,
    )

    kinds = {
        SumReducer: "sum",
        CountRowsReducer: "count_rows",
        CountNonNullReducer: "count_non_null",
        MinReducer: "min",
        MaxReducer: "max",
    }
    kind = kinds.get(type(reducer))
    if kind is None:
        raise _Unsupported(type(reducer).__name__)
    return kind


# ----------------------------------------------------------------------
# Batch (columnar) compilation
# ----------------------------------------------------------------------
#
# Expressions become single comprehensions over ``zip``-ped input columns,
# and a whole group-by becomes one inline fold over the zipped key and
# source columns — key tuples are built by an inner ``zip`` at C speed,
# each key is mapped to a group ordinal, and each aggregate's states live
# in one list indexed by that ordinal, accumulated with inlined copies of
# the reducers' ``step`` logic — one container per aggregate, where a
# state list per group would be one object per group for the cyclic
# garbage collector to traverse on every full pass.  (An earlier
# bucket-then-gather design — hash the keys into index lists, then a
# per-group gather-and-reduce — lost in measurement once group counts
# approach row counts: the per-group list comprehensions and ``reduce``
# calls cost more than inline accumulation.)
#
# Exactness contract, against the interpreted fold:
#
# * every accumulation statement is ``Reducer.step`` inlined (guarded
#   running add for ``sum``, first-extremal comparison for ``min``/
#   ``max``), so running states are bit-identical — ``bool``/``-0.0``/
#   mixed-type sums included; a group's first row stores what that step
#   makes of the initial state (the value itself, or a count of 0 / 1);
# * ``SUM(<int literal>)`` starts the state at the literal and adds it
#   per further row: groups only exist with at least one row and
#   repeated int addition has no rounding, so the result equals the
#   guarded None-seeded chain (and the zero-key closed form ``L * n``);
# * groups land in first-occurrence order (dict insertion order), and
#   the state lists are the interpreted fold's per-group states
#   transposed, so ``aggregation._finalize`` takes either.


class _BatchExpr:
    """Emit one expression as a *single* Python expression over scalar
    variables (one per referenced column).

    Supports the pure-expression subset: columns, safe literals,
    null-propagating arithmetic, ``Neg``, comparisons, ``IsNull``, and
    ``Case`` (lowered to nested conditional expressions, which evaluate
    lazily exactly like the interpreted closure).  Anything else raises
    :class:`_Unsupported` and the caller falls back to the interpreter.  Sub-expressions may be re-evaluated (they appear in both a null
    test and the operation); every supported node is pure, so only cost —
    not semantics — is affected.
    """

    #: null states
    NEVER, ALWAYS, MAYBE = "never", "always", "maybe"

    def __init__(self, atom_of: Callable[[str], str], env: dict[str, Any]):
        self._atom_of = atom_of
        self.env = env
        self._counter = 0

    def _constant(self, value: Any) -> str:
        self._counter += 1
        name = f"_bconst{self._counter}"
        self.env[name] = value
        return name

    def emit(self, expr: Expression) -> tuple[str, str]:
        """Return ``(source, null_state)`` for *expr*."""
        if type(expr) is Column:
            return self._atom_of(expr.name), self.MAYBE
        if type(expr) is Literal:
            value = expr.value
            if value is None:
                return "None", self.ALWAYS
            if type(value) in _SAFE_LITERAL_TYPES:
                return repr(value), self.NEVER
            return self._constant(value), self.NEVER
        if type(expr) in _ARITH_NODES:
            left, ln = self.emit(expr.left)
            right, rn = self.emit(expr.right)
            if self.ALWAYS in (ln, rn):
                return "None", self.ALWAYS
            op = _ARITH_NODES[type(expr)]
            tests = [f"{s} is None" for s, n in ((left, ln), (right, rn))
                     if n is self.MAYBE]
            if tests:
                return (
                    f"(None if {' or '.join(tests)} else {left} {op} {right})",
                    self.MAYBE,
                )
            return f"({left} {op} {right})", self.NEVER
        if type(expr) is Neg:
            operand, on = self.emit(expr.operand)
            if on is self.ALWAYS:
                return "None", self.ALWAYS
            if on is self.MAYBE:
                return f"(None if {operand} is None else -{operand})", self.MAYBE
            return f"(-{operand})", self.NEVER
        if type(expr) is Comparison:
            left, ln = self.emit(expr.left)
            right, rn = self.emit(expr.right)
            if self.ALWAYS in (ln, rn):
                return "False", self.NEVER
            if expr.symbol == "<>":
                guards = [f"{s} is not None" for s, n in ((left, ln), (right, rn))
                          if n is self.MAYBE]
                clause = " and ".join(guards + [f"{left} != {right}"])
                return f"({clause})", self.NEVER
            op = _COMPARE_SYMBOLS[expr.symbol]
            tests = [f"{s} is None" for s, n in ((left, ln), (right, rn))
                     if n is self.MAYBE]
            if tests:
                return (
                    f"(False if {' or '.join(tests)} else {left} {op} {right})",
                    self.NEVER,
                )
            return f"({left} {op} {right})", self.NEVER
        if type(expr) is IsNull:
            operand, on = self.emit(expr.operand)
            if on is self.ALWAYS:
                return "True", self.NEVER
            if on is self.NEVER:
                return "False", self.NEVER
            return f"({operand} is None)", self.NEVER
        if type(expr) is Case:
            # Build from the default backwards so branch conditions and
            # values stay lazy, folding statically-decided conditions.
            out, out_null = self.emit(expr.default)
            for condition, value_expr in reversed(expr.branches):
                test, _tn = self.emit(condition)
                if test == "True":
                    out, out_null = self.emit(value_expr)
                    continue
                if test == "False":
                    continue
                value, _vn = self.emit(value_expr)
                out = f"({value} if {test} else {out})"
                out_null = self.MAYBE
            return out, out_null
        # And/Or/Not: deliberately unsupported (see module docstring).
        raise _Unsupported(type(expr).__name__)


@dataclass(frozen=True)
class ColumnKernel:
    """Column-wise evaluation of a list of expressions.

    ``eval_columns(columns, n)`` takes the input table's columns (live
    values, slot order) and the live row count, and returns one output
    sequence per expression — plain ``Column`` references pass the input
    column through untouched, constant expressions become a repeated
    literal, and everything else is a single comprehension.
    """

    source: str
    eval_columns: Callable[[Sequence[Sequence[Any]], int], list]


def _emit_vectorized(
    writer: list[str],
    env: dict[str, Any],
    out_var: str,
    expr: Expression,
    schema: Schema,
    indent: str,
    batch: _BatchExpr | None = None,
) -> None:
    """Emit ``out_var = <column-wise evaluation of expr>`` against the
    input columns ``_cols`` (full-batch form).  Raises :class:`_Unsupported`
    outside the pure-expression subset."""
    if type(expr) is Column:
        writer.append(f"{indent}{out_var} = _cols[{schema.position(expr.name)}]")
        return
    used: dict[str, str] = {}

    def atom_of(name: str) -> str:
        var = used.get(name)
        if var is None:
            schema.position(name)  # validate; raises SchemaError on typos
            var = f"_x{len(used)}"
            used[name] = var
        return var

    be = _BatchExpr(atom_of, env) if batch is None else batch
    previous_atom = be._atom_of
    be._atom_of = atom_of
    try:
        src, null_state = be.emit(expr)
    finally:
        be._atom_of = previous_atom
    if not used:
        writer.append(f"{indent}{out_var} = [{src}] * _n")
        return
    names = list(used)
    variables = ", ".join(used[name] for name in names)
    if len(names) == 1:
        iterator = f"_cols[{schema.position(names[0])}]"
    else:
        cols = ", ".join(f"_cols[{schema.position(name)}]" for name in names)
        iterator = f"zip({cols})"
        variables = f"({variables})"
    writer.append(f"{indent}{out_var} = [{src} for {variables} in {iterator}]")


def compile_column_kernel(
    expressions: Sequence[Expression], schema: Schema
) -> ColumnKernel | None:
    """Compile expressions into one column-wise evaluation function.

    Returns ``None`` (callers fall back to the interpreter) when any
    expression falls outside the pure-expression subset.
    """
    writer: list[str] = ["def _eval(_cols, _n):"]
    env: dict[str, Any] = {}
    outs = []
    try:
        for k, expr in enumerate(expressions):
            out = f"_out{k}"
            _emit_vectorized(writer, env, out, expr, schema, "    ")
            outs.append(out)
    except _Unsupported:
        return None
    writer.append(f"    return [{', '.join(outs)}]")
    source = "\n".join(writer) + "\n"
    namespace: dict[str, Any] = dict(env)
    exec(compile(source, "<repro.codegen.columns>", "exec"), namespace)  # noqa: S102
    return ColumnKernel(source=source, eval_columns=namespace["_eval"])


def _emit_group_fold(
    writer: list[str],
    groups_var: str,
    key_vars: Sequence[str],
    agg_plan: Sequence[tuple[str, str | None, int | None]],
    n_expr: str,
    indent: str,
) -> str:
    """Emit a single-pass inline group fold over zipped columns; return
    the source of its result, ``(groups, [accumulator per aggregate])``.

    ``agg_plan`` holds one ``(kind, source_var, literal_int)`` per
    aggregate: ``source_var`` names the full-batch source value list
    (``None`` for ``count_rows`` and for statically-null sources), and
    ``literal_int`` carries the exact-int fast path for ``SUM(<int>)``.
    Fills *groups_var* with ``{key tuple: group ordinal}`` in
    first-occurrence order, and one accumulator list per aggregate whose
    element *g* is group *g*'s state: one container per aggregate, none
    per group.  A group's first row sets each state to what
    ``Reducer.step`` makes of the initial state (the value itself for
    ``sum``/``min``/``max``), later rows apply that step inlined, so
    running states are identical to the interpreted fold's.
    """
    accumulators = [f"{groups_var}_a{slot}" for slot in range(len(agg_plan))]
    writer.append(f"{indent}{groups_var} = {{}}")
    for accumulator in accumulators:
        writer.append(f"{indent}{accumulator} = []")
    result = f"({groups_var}, [{', '.join(accumulators)}])"
    if not key_vars:
        _emit_zero_key_fold(writer, groups_var, accumulators, agg_plan,
                            n_expr, indent)
        return result
    # Distinct source columns become loop variables of the single pass.
    value_of: dict[str, str] = {}
    for _kind, source_var, literal_int in agg_plan:
        if (source_var is not None and literal_int is None
                and source_var not in value_of):
            value_of[source_var] = f"_av{len(value_of)}"
    firsts: list[str] = []
    for kind, source_var, literal_int in agg_plan:
        if kind == "count_rows":
            firsts.append("1")
        elif literal_int is not None:
            firsts.append(repr(literal_int))
        elif source_var is None:  # statically-null source
            firsts.append("0" if kind == "count_non_null" else "None")
        elif kind == "count_non_null":
            firsts.append(f"0 if {value_of[source_var]} is None else 1")
        else:
            firsts.append(value_of[source_var])
    keys = f"zip({', '.join(key_vars)})"
    if value_of:
        srcs = ", ".join(value_of)
        values = ", ".join(value_of.values())
        head = f"for _key, {values} in zip({keys}, {srcs}):"
    else:
        head = f"for _key in {keys}:"
    writer.append(f"{indent}_gget = {groups_var}.get")
    writer.append(f"{indent}{head}")
    body = indent + "    "
    writer.append(f"{body}_g = _gget(_key)")
    writer.append(f"{body}if _g is None:")
    writer.append(f"{body}    {groups_var}[_key] = len({groups_var})")
    for accumulator, first in zip(accumulators, firsts):
        writer.append(f"{body}    {accumulator}.append({first})")
    writer.append(f"{body}    continue")
    for (kind, source_var, literal_int), accumulator in zip(
        agg_plan, accumulators
    ):
        state = f"{accumulator}[_g]"
        if kind == "count_rows":
            writer.append(f"{body}{state} += 1")
            continue
        if literal_int is not None:
            writer.append(f"{body}{state} += {literal_int!r}")
            continue
        if source_var is None:  # statically-null source: step is a no-op
            continue
        value = value_of[source_var]
        if kind == "count_non_null":
            writer.append(f"{body}if {value} is not None:")
            writer.append(f"{body}    {state} += 1")
        elif kind == "sum":
            writer.append(f"{body}if {value} is not None:")
            writer.append(f"{body}    _a = {state}")
            writer.append(
                f"{body}    {state} = {value} if _a is None else _a + {value}"
            )
        elif kind in ("min", "max"):
            op = "<" if kind == "min" else ">"
            writer.append(f"{body}if {value} is not None:")
            writer.append(f"{body}    _a = {state}")
            writer.append(f"{body}    if _a is None or {value} {op} _a:")
            writer.append(f"{body}        {state} = {value}")
        else:  # pragma: no cover - guarded by _reducer_kind
            raise _Unsupported(kind)
    return result


def _emit_zero_key_fold(
    writer: list[str],
    groups_var: str,
    accumulators: Sequence[str],
    agg_plan: Sequence[tuple[str, str | None, int | None]],
    n_expr: str,
    indent: str,
) -> None:
    """Zero-key grouping: one ``()`` group iff any rows, closed forms
    where exact (``COUNT(*)`` → n, ``SUM(<int>)`` → literal · n) and a
    non-null gather + C-level reduce per distinct source otherwise."""
    writer.append(f"{indent}if {n_expr}:")
    body = indent + "    "
    gathered: dict[str, str] = {}
    states: list[str] = []
    for kind, source_var, literal_int in agg_plan:
        if kind == "count_rows":
            states.append(n_expr)
            continue
        if literal_int is not None:
            states.append(f"{literal_int!r} * {n_expr}")
            continue
        if source_var is None:  # statically-null source
            states.append("0" if kind == "count_non_null" else "None")
            continue
        nn = gathered.get(source_var)
        if nn is None:
            nn = f"_nn{len(gathered)}"
            gathered[source_var] = nn
            writer.append(
                f"{body}{nn} = [_v for _v in {source_var} "
                f"if _v is not None]"
            )
        if kind == "sum":
            # reduce(add, ...) is the interpreter's left-to-right chain;
            # a single value passes through unchanged.
            states.append(f"_reduce(_add, {nn}) if {nn} else None")
        elif kind == "count_non_null":
            states.append(f"len({nn})")
        elif kind == "min":
            states.append(f"min({nn}) if {nn} else None")
        elif kind == "max":
            states.append(f"max({nn}) if {nn} else None")
        else:  # pragma: no cover - guarded by _reducer_kind
            raise _Unsupported(kind)
    writer.append(f"{body}{groups_var}[()] = 0")
    for accumulator, state in zip(accumulators, states):
        writer.append(f"{body}{accumulator}.append({state})")


def _batch_agg_plan(
    writer: list[str],
    env: dict[str, Any],
    aggregates: Sequence[tuple[str, Expression, Any]],
    schema: Schema,
    emit_source: Callable[[list[str], dict[str, Any], str, Expression], None],
) -> list[tuple[str, str | None, int | None]]:
    """Emit source-column evaluations and return the per-aggregate plan.

    ``emit_source`` writes ``var = <full-batch values of expr>`` lines; the
    plan deduplicates identical expressions so e.g. MIN/MAX over the same
    column share one evaluation and one non-null gather.
    """
    plan: list[tuple[str, str | None, int | None]] = []
    by_expr: dict[Any, str] = {}
    for _name, expr, reducer in aggregates:
        kind = _reducer_kind(reducer)
        if kind == "count_rows":
            if type(expr) not in (Column, Literal):
                # The interpreter evaluates non-trivial COUNT(*) inputs
                # (they may raise); keep that behaviour by not batching them.
                raise _Unsupported("count_rows over a computed expression")
            plan.append((kind, None, None))
            continue
        if type(expr) is Literal:
            value = expr.value
            if value is None:
                plan.append((kind, None, None))
                continue
            if kind == "sum" and type(value) is int:
                plan.append((kind, None, value))
                continue
        try:
            dedup_key = expr._key()
            hash(dedup_key)
        except (TypeError, AttributeError):  # an unhashable literal
            dedup_key = id(expr)
        var = by_expr.get(dedup_key)
        if var is None:
            var = f"_src{len(by_expr)}"
            by_expr[dedup_key] = var
            emit_source(writer, env, var, expr)
        plan.append((kind, var, None))
    return plan


@dataclass(frozen=True)
class CompiledBatchAggregation:
    """One compiled batch (columnar) group-by.

    ``fold_columns(columns, n)`` folds the input columns (live values in
    slot order) into ``(groups, states)``: the key tuples, as a
    ``{key tuple: group ordinal}`` dict in first-occurrence order, and one
    list per aggregate holding every group's state by ordinal — the
    interpreted fold's ``{key tuple: state list}`` dict, transposed:
    identical content, group order and states.
    """

    source: str
    fold_columns: Callable[
        [Sequence[Sequence[Any]], int], tuple[dict, list[list[Any]]]
    ]


def compile_batch_aggregation(
    schema: Schema,
    keys: Sequence[str],
    aggregates: Sequence[tuple[str, Expression, Any]],
) -> CompiledBatchAggregation | None:
    """Compile one group-by call into a batch fold over columns.

    Returns ``None`` (caller falls back to the interpreter) when any
    expression/reducer is outside the supported subset.
    """
    writer: list[str] = ["def _fold_cols(_cols, _n):"]
    env: dict[str, Any] = {}
    try:
        key_positions = schema.positions(keys)

        def emit_source(w: list[str], e: dict[str, Any], var: str,
                        expr: Expression) -> None:
            _emit_vectorized(w, e, var, expr, schema, "    ")

        plan = _batch_agg_plan(writer, env, aggregates, schema, emit_source)
        key_vars = [f"_cols[{p}]" for p in key_positions]
        result = _emit_group_fold(writer, "_groups", key_vars, plan, "_n", "    ")
    except _Unsupported:
        return None
    writer.append(f"    return {result}")
    source = "\n".join(writer) + "\n"
    namespace: dict[str, Any] = dict(env)
    namespace["_reduce"] = _functools.reduce
    namespace["_add"] = _operator.add
    exec(compile(source, "<repro.codegen.batch>", "exec"), namespace)  # noqa: S102
    return CompiledBatchAggregation(
        source=source, fold_columns=namespace["_fold_cols"]
    )

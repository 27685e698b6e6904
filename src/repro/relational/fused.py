"""Shared-scan fused aggregation: k sibling group-bys in one pass.

Theorem 5.1 computes every child summary-delta of a D-lattice node from the
parent's summary-delta.  Executed naively that costs, *per child*, one
``hash_join`` pass per dimension join (materialising an intermediate table)
plus one full ``group_by`` scan — k children scan the same parent delta k
times.  Multi-query optimisation for view maintenance (Mistry et al.) and
DBToaster-style delta pipelines both observe that sibling deltas should
share their input scan.

This module compiles all k sibling edge queries into *one* generated
function over the parent delta's columns: per child, each foreign-key
column probes its dimension (a dict ``get`` per value, replicating
inner-join semantics against a unique dimension key), the surviving rows'
group keys and aggregate inputs are gathered, and the group fold that
:mod:`repro.relational.codegen` emits for a single group-by accumulates
that child's states.  One input, k accumulator sets, zero intermediate
tables.

Correctness contract: for every child the resulting groups are
*identical* — content and first-occurrence order — to the per-child
``EdgeQuery.apply_delta`` pipeline, because (a) ``hash_join`` against a
unique right-side index preserves left-row order and drops exactly the rows
whose foreign key is null or unmatched, and (b) the reducer steps are the
same inlined templates as :mod:`repro.relational.codegen`.  The
differential suite (`tests/differential/`) asserts byte-identical output
tables against the per-child path, the interpreter, and sqlite.

Fallback contract: :func:`prepare_fused_scan` returns ``None`` whenever any
child uses an expression or reducer outside the codegen subset or any
joined dimension table lacks a unique index on its key.  Callers keep the
per-child path as the fallback.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .aggregation import AggregateSpec, _finalize
from .codegen import (
    _BatchExpr,
    _Unsupported,
    _batch_agg_plan,
    _emit_group_fold,
)
from .schema import Schema
from .table import Table

__all__ = [
    "FusedChild",
    "FusedJoin",
    "FusedScan",
    "prepare_fused_scan",
]


@dataclass(frozen=True)
class FusedJoin:
    """One dimension join a fused child needs: probe ``table`` (on its
    unique ``key``) with the parent-row value of ``fk_column``."""

    fk_column: str
    table: Table
    key: str


@dataclass(frozen=True)
class FusedChild:
    """One sibling group-by to fuse into the shared scan."""

    name: str
    output_name: str
    keys: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    joins: tuple[FusedJoin, ...]


@dataclass(frozen=True)
class FusedScan:
    """A compiled shared scan over one parent delta for k sibling children.

    ``fold_columns(columns, n)`` runs the kernel over the delta's columns
    (whole-column probe resolution, one pass per child) and returns
    ``(groups, probe_counts)`` — per child, in child order, its folded
    groups as (key tuples, one state column per aggregate) and one exact
    dimension-probe count.  ``finalize(i, groups)`` builds child *i*'s
    output table from its folded groups, using the same finaliser as
    ``group_by``.  ``source`` is the generated Python, kept for tests and
    debugging.
    """

    source: str
    children: tuple[FusedChild, ...]
    _fold_cols: Callable
    #: Per global probe slot: (dimension table, key column).
    _dims: tuple[tuple[Table, str], ...]

    def _dim_probes(self) -> list[dict[Any, tuple]]:
        """Build one key → row probe dict per global join slot.

        Rows whose key is null are excluded: the kernel relies on
        ``dict.get(None)`` missing so a null fk marks the row unmatched.
        """
        built: dict[tuple[int, str], dict[Any, tuple]] = {}
        dims: list[dict[Any, tuple]] = []
        for table, key in self._dims:
            handle = (id(table), key)
            probe = built.get(handle)
            if probe is None:
                position = table.schema.position(key)
                probe = {
                    row[position]: row for row in table.rows()
                    if row[position] is not None
                }
                built[handle] = probe
            dims.append(probe)
        return dims

    def fold_columns(
        self, columns: Sequence[Sequence[Any]], n: int
    ) -> tuple[list[tuple], list[int]]:
        """Fold the parent delta's *columns* (*n* live rows) for every
        child."""
        *groups, probes = self._fold_cols(columns, n, self._dim_probes())
        return list(groups), list(probes)

    def finalize(
        self,
        index: int,
        groups: tuple,
        name: str | None = None,
    ) -> Table:
        child = self.children[index]
        return _finalize(
            *groups,
            child.name,
            list(child.keys),
            list(child.aggregates),
            name or child.output_name,
            "fused",
        )


#: Cache of compiled shared-scan kernels, keyed by the full shape of the
#: scan (parent schema, per-child keys/joins/aggregate expressions).  Misses
#: are cached as None so the fallback decision is also O(1).
_fused_cache: dict[tuple, tuple[str, Callable] | None] = {}


def _non_null_count(values: Sequence[Any]) -> int:
    """Count non-null entries; typed arrays cannot hold ``None`` at all."""
    try:
        return len(values) - values.count(None)
    except TypeError:
        return len(values)


def _child_atom_elements(
    parent_schema: Schema,
    child: FusedChild,
    slots: Sequence[int],
) -> dict[str, str]:
    """Map every column visible to *child* to a per-row element expression.

    Replays the per-child join pipeline's schema construction —
    ``left.concat(dim, prefix_conflicts=dim.name)`` per join — so name
    resolution (including conflict renames) matches ``hash_join`` exactly:
    parent columns become ``_cols[p][_j]`` and dimension columns index the
    slot's whole-column match list, ``_m{slot}[_j][m]``.
    """
    atoms = {
        name: f"_cols[{position}][_j]"
        for position, name in enumerate(parent_schema.columns)
    }
    joined = parent_schema
    for slot, join in zip(slots, child.joins):
        widened = joined.concat(join.table.schema, prefix_conflicts=join.table.name)
        for offset, name in enumerate(widened.columns[len(joined):]):
            atoms[name] = f"_m{slot}[_j][{offset}]"
        joined = widened
    return atoms


def _compile_fused_batch(
    parent_schema: Schema, children: Sequence[FusedChild]
) -> tuple[str, Callable] | None:
    """Generate and compile the batch (columnar) shared-scan kernel.

    One whole-column pass per child: the foreign-key column probes its
    dimension dict in one ``map``, survivors form a keep-list, group keys
    and aggregate sources gather at the keep-list, and the shared inline
    group-fold emitter from :mod:`repro.relational.codegen` produces the
    same groups — content, group order and states — as the per-child
    pipeline, held as one accumulator list per aggregate.  Probe counts
    are exact: one per surviving non-null foreign key, as ``hash_join``
    charges them.
    """
    writer: list[str] = ["def _fold_cols(_cols, _n, _dims):"]
    env: dict[str, Any] = {}
    ind = "    "

    slot = 0
    child_slots: list[tuple[int, ...]] = []
    for child in children:
        slots = tuple(range(slot, slot + len(child.joins)))
        child_slots.append(slots)
        slot += len(child.joins)
    for s in range(slot):
        writer.append(f"{ind}_dget{s} = _dims[{s}].get")

    returns: list[str] = []
    probe_vars: list[str] = []
    try:
        for i, child in enumerate(children):
            atoms = _child_atom_elements(parent_schema, child, child_slots[i])

            def atom_of(name: str, _atoms=atoms) -> str:
                try:
                    return _atoms[name]
                except KeyError:
                    raise _Unsupported(f"unresolvable column {name!r}") from None

            writer.append(f"{ind}_p{i} = 0")
            prev: int | None = None
            for j, s in enumerate(child_slots[i]):
                join = child.joins[j]
                fk_elem = atoms[join.fk_column]
                if prev is None and fk_elem.endswith("[_j]"):
                    # First join, parent-sourced fk: the raw column is the
                    # probe input (a typed array cannot even contain nulls).
                    writer.append(f"{ind}_fk{s} = {fk_elem[:-4]}")
                else:
                    mask = f"_m{prev}[_j] is None or " if prev is not None else ""
                    writer.append(
                        f"{ind}_fk{s} = [None if {mask}{fk_elem} is None "
                        f"else {fk_elem} for _j in range(_n)]"
                    )
                writer.append(f"{ind}_p{i} += _nnc(_fk{s})")
                writer.append(f"{ind}_m{s} = list(map(_dget{s}, _fk{s}))")
                prev = s
            if child.joins:
                domain = f"_keep{i}"
                writer.append(
                    f"{ind}{domain} = "
                    f"[_j for _j in range(_n) if _m{prev}[_j] is not None]"
                )
                n_expr = f"len({domain})"
            else:
                domain = "range(_n)"
                n_expr = "_n"

            key_vars: list[str] = []
            for t, key_name in enumerate(child.keys):
                elem = atoms.get(key_name)
                if elem is None:
                    raise _Unsupported(f"unresolvable column {key_name!r}")
                if not child.joins and elem.endswith("[_j]"):
                    key_vars.append(elem[:-4])
                    continue
                var = f"_kc{i}_{t}"
                writer.append(f"{ind}{var} = [{elem} for _j in {domain}]")
                key_vars.append(var)

            batch = _BatchExpr(atom_of, env)

            def emit_source(w: list[str], e: dict[str, Any], var: str,
                            expr: Any, _batch=batch, _domain=domain) -> None:
                src, _null_state = _batch.emit(expr)
                if (
                    _domain == "range(_n)"
                    and src.startswith("_cols[")
                    and src.endswith("][_j]")
                    and src.count("[") == 2
                ):
                    # No joins + plain column source: pass it through.
                    w.append(f"{ind}{var} = {src[:-4]}")
                    return
                w.append(f"{ind}{var} = [{src} for _j in {_domain}]")

            plan = _batch_agg_plan(
                writer, env, child.aggregates, parent_schema, emit_source
            )
            returns.append(
                _emit_group_fold(writer, f"_g{i}", key_vars, plan, n_expr, ind)
            )
            probe_vars.append(f"_p{i}")
    except _Unsupported:
        return None

    probes = ", ".join(probe_vars)
    writer.append(
        f"{ind}return ({', '.join(returns)}, "
        f"({probes}{',' if len(children) == 1 else ''}))"
    )
    source = "\n".join(writer) + "\n"
    namespace: dict[str, Any] = dict(env)
    namespace["_nnc"] = _non_null_count
    namespace["_reduce"] = functools.reduce
    namespace["_add"] = operator.add
    exec(compile(source, "<repro.fused.batch>", "exec"), namespace)  # noqa: S102
    return source, namespace["_fold_cols"]


def _cache_key(
    parent_schema: Schema, children: Sequence[FusedChild]
) -> tuple | None:
    try:
        key = (
            parent_schema.columns,
            tuple(
                (
                    child.keys,
                    tuple(
                        (j.fk_column, j.table.name, j.key, j.table.schema.columns)
                        for j in child.joins
                    ),
                    tuple(
                        (expr._key(), type(reducer))
                        for _n, expr, reducer in child.aggregates
                    ),
                )
                for child in children
            ),
        )
        hash(key)
    except TypeError:  # unhashable literal somewhere in an expression
        return None
    return key


def prepare_fused_scan(
    parent_schema: Schema, children: Sequence[FusedChild]
) -> FusedScan | None:
    """Build the shared-scan kernel for *children* over *parent_schema*.

    Returns ``None`` (callers fall back to per-child propagation) when any
    aggregate falls outside the codegen subset or a joined dimension table
    lacks a unique index on its key — without that uniqueness guarantee a
    probe dict could silently drop duplicate matches that ``hash_join``
    would emit.
    """
    if not children:
        return None
    for child in children:
        for join in child.joins:
            index = join.table.index_on([join.key])
            if index is None or not index.unique:
                return None

    key = _cache_key(parent_schema, children)
    if key is None:
        compiled = _compile_fused_batch(parent_schema, children)
    elif key in _fused_cache:
        compiled = _fused_cache[key]
    else:
        compiled = _compile_fused_batch(parent_schema, children)
        _fused_cache[key] = compiled
    if compiled is None:
        return None

    source, fold_cols = compiled
    dims = tuple(
        (join.table, join.key) for child in children for join in child.joins
    )
    return FusedScan(
        source=source,
        children=tuple(children),
        _fold_cols=fold_cols,
        _dims=dims,
    )


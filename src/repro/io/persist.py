"""Warehouse persistence: save/load a warehouse to a directory.

A warehouse directory contains one JSON-lines file per table (lossless for
the engine's value types: int, float, str, bool, null) plus a
``manifest.json`` describing the star schema and the summary-table
definitions — including their aggregate expressions, serialised as a small
JSON expression tree.

Materialised summary tables are persisted *as stored* (not recomputed on
load), so a maintained warehouse round-trips exactly; ``load_warehouse``
can optionally verify every view against recomputation after loading.

Every file is written atomically, tables first and the manifest last.  The
manifest records each table file's row count and SHA-256 digest, so a file
cut short, or left over from a save interrupted before its manifest landed,
fails the load with :class:`PersistenceError` instead of loading a
different warehouse.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any

from ..aggregates import base as aggregate_base
from ..aggregates.standard import Avg, Count, CountStar, Max, Min, Sum
from ..errors import ReproError
from ..relational import expressions as expr
from ..relational.table import Table
from ..views.definition import AggregateOutput, SummaryViewDefinition
from ..views.materialize import MaterializedView
from ..warehouse.catalog import Warehouse
from ..warehouse.dimension import DimensionHierarchy, DimensionTable
from ..warehouse.fact import FactTable, ForeignKey
from .atomic import atomic_write_text

FORMAT_VERSION = 2


class PersistenceError(ReproError):
    """A warehouse directory is missing, malformed, or version-incompatible."""


# ----------------------------------------------------------------------
# Expression (de)serialisation
# ----------------------------------------------------------------------

def expression_to_json(expression: expr.Expression) -> Any:
    """Serialise an expression tree to JSON-compatible data."""
    if isinstance(expression, expr.Column):
        return {"op": "col", "name": expression.name}
    if isinstance(expression, expr.Literal):
        return {"op": "lit", "value": expression.value}
    if isinstance(expression, expr.Neg):
        return {"op": "neg", "operand": expression_to_json(expression.operand)}
    if isinstance(expression, (expr.Add, expr.Sub, expr.Mul)):
        return {
            "op": expression.symbol,
            "left": expression_to_json(expression.left),
            "right": expression_to_json(expression.right),
        }
    if isinstance(expression, expr.Comparison):
        return {
            "op": "cmp",
            "symbol": expression.symbol,
            "left": expression_to_json(expression.left),
            "right": expression_to_json(expression.right),
        }
    if isinstance(expression, expr.And):
        return {"op": "and",
                "operands": [expression_to_json(o) for o in expression.operands]}
    if isinstance(expression, expr.Or):
        return {"op": "or",
                "operands": [expression_to_json(o) for o in expression.operands]}
    if isinstance(expression, expr.Not):
        return {"op": "not", "operand": expression_to_json(expression.operand)}
    if isinstance(expression, expr.IsNull):
        return {"op": "isnull", "operand": expression_to_json(expression.operand)}
    if isinstance(expression, expr.Case):
        return {
            "op": "case",
            "branches": [
                [expression_to_json(c), expression_to_json(v)]
                for c, v in expression.branches
            ],
            "default": expression_to_json(expression.default),
        }
    raise PersistenceError(
        f"cannot serialise expression type {type(expression).__name__}"
    )


def expression_from_json(data: Any) -> expr.Expression:
    """Rebuild an expression tree from its JSON form."""
    op = data["op"]
    if op == "col":
        return expr.Column(data["name"])
    if op == "lit":
        return expr.Literal(data["value"])
    if op == "neg":
        return expr.Neg(expression_from_json(data["operand"]))
    if op in ("+", "-", "*"):
        types = {"+": expr.Add, "-": expr.Sub, "*": expr.Mul}
        return types[op](
            expression_from_json(data["left"]),
            expression_from_json(data["right"]),
        )
    if op == "cmp":
        return expr.Comparison(
            data["symbol"],
            expression_from_json(data["left"]),
            expression_from_json(data["right"]),
        )
    if op == "and":
        return expr.And(*(expression_from_json(o) for o in data["operands"]))
    if op == "or":
        return expr.Or(*(expression_from_json(o) for o in data["operands"]))
    if op == "not":
        return expr.Not(expression_from_json(data["operand"]))
    if op == "isnull":
        return expr.IsNull(expression_from_json(data["operand"]))
    if op == "case":
        return expr.Case(
            [
                (expression_from_json(c), expression_from_json(v))
                for c, v in data["branches"]
            ],
            expression_from_json(data["default"]),
        )
    raise PersistenceError(f"unknown expression op {op!r}")


_AGGREGATE_TYPES = {
    "count_star": CountStar,
    "count": Count,
    "sum": Sum,
    "min": Min,
    "max": Max,
    "avg": Avg,
}


def aggregate_to_json(function: aggregate_base.AggregateFunction) -> Any:
    if function.kind not in _AGGREGATE_TYPES:
        raise PersistenceError(f"cannot serialise aggregate {function.render()}")
    payload: dict[str, Any] = {"kind": function.kind}
    if function.argument is not None:
        payload["argument"] = expression_to_json(function.argument)
    return payload


def aggregate_from_json(data: Any) -> aggregate_base.AggregateFunction:
    kind = data["kind"]
    aggregate_type = _AGGREGATE_TYPES.get(kind)
    if aggregate_type is None:
        raise PersistenceError(f"unknown aggregate kind {kind!r}")
    if kind == "count_star":
        return aggregate_type()
    return aggregate_type(expression_from_json(data["argument"]))


# ----------------------------------------------------------------------
# Table I/O (JSON lines)
# ----------------------------------------------------------------------

def _write_rows(root: pathlib.Path, filename: str, table: Table,
               files: dict[str, Any]) -> None:
    """Write *table* to ``root/filename`` and record it in *files*."""
    lines = [json.dumps(list(row)) + "\n" for row in table.scan()]
    text = "".join(lines)
    atomic_write_text(root / filename, text)
    files[filename] = {"rows": len(lines), "sha256": _digest(text)}


def _read_rows(root: pathlib.Path, filename: str,
               files: dict[str, Any]) -> list[tuple]:
    """The rows of ``root/filename``, checked against its manifest entry."""
    path = root / filename
    expected = files.get(filename)
    if expected is None:
        raise PersistenceError(f"the manifest records no {filename}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    rows: list[tuple] = []
    for number, line in enumerate(lines, start=1):
        try:
            rows.append(tuple(json.loads(line)))
        except ValueError as exc:
            raise PersistenceError(
                f"{path}: line {number} is not a JSON row"
            ) from exc
    if len(rows) != expected["rows"]:
        raise PersistenceError(
            f"{path}: {len(rows)} rows, the manifest records "
            f"{expected['rows']}"
        )
    if _digest(text) != expected["sha256"]:
        raise PersistenceError(
            f"{path}: contents differ from the manifest's digest "
            f"(left by an interrupted save?)"
        )
    return rows


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Warehouse save/load
# ----------------------------------------------------------------------

def save_warehouse(warehouse: Warehouse, directory: str | pathlib.Path) -> None:
    """Persist *warehouse* (bases, definitions, materialised views)."""
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    files: dict[str, Any] = {}
    manifest: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "dimensions": [],
        "facts": [],
        "views": [],
        "files": files,
    }
    for dimension in warehouse.dimensions.values():
        manifest["dimensions"].append({
            "name": dimension.name,
            "columns": list(dimension.columns),
            "key": dimension.key,
            "hierarchy": list(dimension.hierarchy.levels),
        })
        _write_rows(root, f"{dimension.name}.jsonl", dimension.table, files)
    for fact in warehouse.facts.values():
        manifest["facts"].append({
            "name": fact.name,
            "columns": list(fact.columns),
            "foreign_keys": [
                {"column": fk.column, "dimension": fk.dimension.name}
                for fk in fact.foreign_keys
            ],
            "indexes": [list(index.columns) for index in fact.table.indexes.values()],
        })
        _write_rows(root, f"{fact.name}.jsonl", fact.table, files)
    for view in warehouse.views.values():
        definition = view.definition
        manifest["views"].append({
            "name": definition.name,
            "fact": definition.fact.name,
            "group_by": list(definition.group_by),
            "dimensions": list(definition.dimensions),
            "aggregates": [
                {
                    "name": output.name,
                    "function": aggregate_to_json(output.function),
                    "synthetic": output.synthetic,
                }
                for output in definition.aggregates
            ],
            "derived": [
                {"name": d.name, "numerator": d.numerator,
                 "denominator": d.denominator}
                for d in definition.derived
            ],
            "where": (
                expression_to_json(definition.where)
                if definition.where is not None else None
            ),
        })
        _write_rows(root, f"view_{definition.name}.jsonl", view.table, files)
    atomic_write_text(root / "manifest.json", json.dumps(manifest, indent=2))


def load_warehouse(
    directory: str | pathlib.Path, verify: bool = False
) -> Warehouse:
    """Reconstruct a warehouse saved by :func:`save_warehouse`.

    Raises :class:`PersistenceError` when a table file does not match
    the row count and digest its manifest records.  With ``verify=True``
    every summary table is also checked against recomputation after
    loading (raises on drift).
    """
    root = pathlib.Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise PersistenceError(f"no manifest.json in {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise PersistenceError(f"{manifest_path} is not valid JSON") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported warehouse format {manifest.get('format_version')!r}"
        )
    files = manifest["files"]

    dimensions: dict[str, DimensionTable] = {}
    for spec in manifest["dimensions"]:
        dimensions[spec["name"]] = DimensionTable(
            spec["name"],
            spec["columns"],
            _read_rows(root, f"{spec['name']}.jsonl", files),
            hierarchy=DimensionHierarchy(spec["name"], spec["hierarchy"]),
            key=spec["key"],
        )

    warehouse = Warehouse()
    facts: dict[str, FactTable] = {}
    for spec in manifest["facts"]:
        fact = FactTable(
            spec["name"],
            spec["columns"],
            [
                ForeignKey(fk["column"], dimensions[fk["dimension"]])
                for fk in spec["foreign_keys"]
            ],
            _read_rows(root, f"{spec['name']}.jsonl", files),
        )
        for index_columns in spec["indexes"]:
            fact.table.create_index(index_columns)
        facts[fact.name] = fact
        warehouse.add_fact(fact)

    from ..views.definition import DerivedOutput

    for spec in manifest["views"]:
        definition = SummaryViewDefinition(
            name=spec["name"],
            fact=facts[spec["fact"]],
            group_by=tuple(spec["group_by"]),
            aggregates=tuple(
                AggregateOutput(
                    a["name"], aggregate_from_json(a["function"]), a["synthetic"]
                )
                for a in spec["aggregates"]
            ),
            dimensions=tuple(spec["dimensions"]),
            where=(
                expression_from_json(spec["where"])
                if spec["where"] is not None else None
            ),
            derived=tuple(
                DerivedOutput(d["name"], d["numerator"], d["denominator"])
                for d in spec["derived"]
            ),
        )
        definition.validate()
        table = Table(
            definition.name,
            definition.storage_schema(),
            _read_rows(root, f"view_{definition.name}.jsonl", files),
        )
        warehouse.views[definition.name] = MaterializedView(definition, table)

    if verify:
        warehouse.assert_views_consistent()
    return warehouse

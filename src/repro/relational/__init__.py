"""In-memory relational engine: schemas, bag tables, indexes, operators.

This subpackage is the substrate the warehouse runs on — the reproduction's
stand-in for the commercial RDBMS (Centura SQL) used in the paper's
experiments.  See ``DESIGN.md`` for the substitution rationale.
"""

from .aggregation import (
    CountNonNullReducer,
    CountRowsReducer,
    MaxReducer,
    MinReducer,
    Reducer,
    SumReducer,
    group_by,
)
from .expressions import (
    Add,
    And,
    Case,
    Column,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Mul,
    Neg,
    Not,
    Or,
    Sub,
    col,
    lit,
)
from .index import HashIndex
from .operators import (
    distinct,
    hash_join,
    left_outer_join,
    project,
    rows_from,
    select,
    union_all,
)
from .schema import Schema
from .stats import AccessStats, measuring
from .table import Row, Table
from .types import NULL, is_null, null_max, null_min

__all__ = [
    "NULL",
    "AccessStats",
    "Add",
    "And",
    "Case",
    "Column",
    "Comparison",
    "CountNonNullReducer",
    "CountRowsReducer",
    "Expression",
    "HashIndex",
    "IsNull",
    "Literal",
    "MaxReducer",
    "MinReducer",
    "Mul",
    "Neg",
    "Not",
    "Or",
    "Reducer",
    "Row",
    "Schema",
    "Sub",
    "SumReducer",
    "Table",
    "col",
    "distinct",
    "group_by",
    "hash_join",
    "is_null",
    "left_outer_join",
    "lit",
    "measuring",
    "null_max",
    "null_min",
    "project",
    "rows_from",
    "select",
    "union_all",
]

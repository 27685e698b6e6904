"""Shared plumbing for the differential tests.

The differential suite runs the *same* randomly generated star-schema
change set through every execution engine the repo has — interpreted
``group_by``, the codegen fast path, and the SQLite backend — and demands identical results.  Hypothesis shrinks any
disagreement to a minimal change set; :func:`describe_changes` renders that
change set so the failure message is directly re-runnable by hand.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager


@contextmanager
def env(name: str, value: str | None):
    """Temporarily set (or with ``None``, unset) one environment variable."""
    sentinel = object()
    previous = os.environ.get(name, sentinel)
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value
    try:
        yield
    finally:
        if previous is sentinel:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def rows_equivalent(expected, actual) -> bool:
    """Sorted-row-set equality, tolerating last-ulp drift in float
    aggregates (SUMs summed in a different order)."""
    if len(expected) != len(actual):
        return False
    for row_a, row_b in zip(expected, actual):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if a == b:
                continue
            if isinstance(a, float) and isinstance(b, float):
                if math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    continue
            return False
    return True


def describe_changes(base, inserts, deletes) -> str:
    """The minimal change set, formatted for a failure message."""
    lines = [
        f"base rows ({len(base)}):",
        *(f"  {row}" for row in base),
        f"insertions ({len(inserts)}):",
        *(f"  {row}" for row in inserts),
        f"deletions ({len(deletes)}):",
        *(f"  {row}" for row in deletes),
    ]
    return "\n".join(lines)


def differ_message(what: str, base, inserts, deletes, expected, actual) -> str:
    return (
        f"{what} disagree.\n"
        f"{describe_changes(base, inserts, deletes)}\n"
        f"expected: {expected}\n"
        f"actual:   {actual}"
    )

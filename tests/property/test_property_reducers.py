"""Algebraic properties of reducers and delta aggregation.

The summary-delta method rests on distributivity: folding a partition of
the input and then folding the partial results must equal folding the whole
input.  These properties are what make pre-aggregation (§4.1.3) and
delta-from-delta computation (§5.4) sound, so we check them directly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import (
    CountNonNullReducer,
    CountRowsReducer,
    MaxReducer,
    MinReducer,
    SumReducer,
    Table,
    col,
    group_by,
)

from ..differential.harness import env

values = st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), max_size=40)
splits = st.integers(0, 40)

REDUCERS = [
    ("sum", SumReducer, SumReducer),
    ("count_rows", CountRowsReducer, SumReducer),
    ("count_non_null", CountNonNullReducer, SumReducer),
    ("min", MinReducer, MinReducer),
    ("max", MaxReducer, MaxReducer),
]


def fold(reducer, items):
    state = reducer.create()
    for item in items:
        state = reducer.step(state, item)
    return reducer.finalize(state)


@settings(max_examples=200, deadline=None)
@given(data=values, split=splits)
def test_distributivity_partition_then_combine(data, split):
    """fold(xs) == combine(fold(xs[:k]), fold(xs[k:])) for every reducer and
    its combining reducer (COUNT combines by SUM, the paper's rewrite)."""
    cut = min(split, len(data))
    left, right = data[:cut], data[cut:]
    for name, reducer_type, combiner_type in REDUCERS:
        whole = fold(reducer_type(), data)
        parts = [fold(reducer_type(), left), fold(reducer_type(), right)]
        combined = fold(combiner_type(), parts)
        assert combined == whole, name


@settings(max_examples=200, deadline=None)
@given(data=values)
def test_order_insensitivity(data):
    """Folding in reverse order gives the same result (hash-group order
    must not matter)."""
    for name, reducer_type, _comb in REDUCERS:
        assert fold(reducer_type(), data) == fold(reducer_type(), list(reversed(data))), name


@settings(max_examples=200, deadline=None)
@given(data=values)
def test_nulls_never_contribute(data):
    """Nulls are invisible to every reducer except COUNT(*)."""
    non_null = [value for value in data if value is not None]
    assert fold(SumReducer(), data) == fold(SumReducer(), non_null)
    assert fold(MinReducer(), data) == fold(MinReducer(), non_null)
    assert fold(MaxReducer(), data) == fold(MaxReducer(), non_null)
    assert fold(CountNonNullReducer(), data) == len(non_null)
    assert fold(CountRowsReducer(), data) == len(data)


@pytest.mark.parametrize(
    "reducer_type", [reducer for _n, reducer, _c in REDUCERS],
    ids=[name for name, _r, _c in REDUCERS],
)
@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.sampled_from([None, 0, 1, 2]), max_size=40),
       data=st.data())
def test_compiled_kernels_fold_like_the_reducer(reducer_type, keys, data):
    """Every reducer folds the same under the interpreter, the compiled
    row fold and the columnar batch kernel: same groups, same order,
    same values."""
    measures = data.draw(st.lists(
        st.one_of(st.none(), st.integers(-1000, 1000)),
        min_size=len(keys), max_size=len(keys),
    ))
    rows = list(zip(keys, measures))
    specs = [("agg", col("v"), reducer_type())]
    expected = {}
    for key, value in rows:
        expected.setdefault(key, []).append(value)
    expected = [(key, fold(reducer_type(), values))
                for key, values in expected.items()]
    with env("REPRO_CODEGEN", None):
        for storage in ("row", "column"):
            table = Table("t", ["k", "v"], rows, storage=storage)
            for compiled in (False, None):
                assert group_by(table, ["k"], specs,
                                compiled=compiled).rows() == expected


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=40))
def test_sum_of_signed_pairs_cancels(data):
    """A value inserted and deleted (Table 1's ±expr) contributes zero."""
    signed = [value for v in data for value in (v, -v)]
    assert fold(SumReducer(), signed) == 0


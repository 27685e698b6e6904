"""Algebraic properties of reducers and delta aggregation.

The summary-delta method rests on distributivity: folding a partition of
the input and then folding the partial results must equal folding the whole
input.  These properties are what make pre-aggregation (§4.1.3) and
delta-from-delta computation (§5.4) sound, so we check them directly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import (
    Case,
    Column,
    CountNonNullReducer,
    CountRowsReducer,
    Literal,
    MaxReducer,
    MinReducer,
    SumReducer,
    Table,
    col,
    group_by,
    lit,
)
from repro.relational.aggregation import _fold_interpreted
from repro.relational.codegen import compile_batch_aggregation

measures = st.one_of(st.none(), st.integers(-1000, 1000))
values = st.lists(measures, max_size=40)
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
def test_compiled_kernels_fold_like_the_reducer(
    reducer_type, keys, data, interpreted
):
    """Every reducer folds the same under the interpreted fold and the
    batch kernel: same groups, same order, same values."""
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
    table = Table("t", ["k", "v"], rows)
    with interpreted():
        assert group_by(table, ["k"], specs).rows() == expected
    assert group_by(table, ["k"], specs).rows() == expected


#: Aggregate inputs inside the codegen subset: every node type the batch
#: kernel compiles, statically-null and constant sources included.
KERNEL_EXPRESSIONS = [
    col("v"),
    col("v") + col("w"),
    col("v") * col("w"),
    -col("v"),
    col("v") - lit(7),
    Case([(col("w").is_null(), lit(0))], col("v")),
    Case([(col("v").gt(col("w")), col("v")), (col("v").lt(lit(0)), lit(-1))],
         col("w")),
    lit(3),
    lit(None),
]


@st.composite
def kernel_shapes(draw):
    """A table over (k, v, w) — plain-list or typed columns — a grouping,
    and one to four aggregates inside the codegen subset."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from([None, 0, 1, 2]), measures, measures),
        max_size=40,
    ))
    if draw(st.booleans()):
        table = Table("t", ["k", "v", "w"], rows)
    else:
        table = Table("t", ["k", "v", "w"])
        if rows:
            table.append_batch([list(column) for column in zip(*rows)])
    aggregates = []
    for i in range(draw(st.integers(1, 4))):
        reducer_type = draw(st.sampled_from([r for _n, r, _c in REDUCERS]))
        expr = draw(st.sampled_from(KERNEL_EXPRESSIONS))
        if reducer_type is CountRowsReducer and type(expr) not in (Column,
                                                                  Literal):
            expr = col("v")   # COUNT(*) over a computed input declines
        aggregates.append((f"a{i}", expr, reducer_type()))
    grouping = draw(st.sampled_from([[], ["k"], ["k", "w"]]))
    return table, grouping, aggregates


@settings(max_examples=200, deadline=None)
@given(kernel_shapes())
def test_batch_kernel_folds_like_the_interpreted_fold(shape):
    """On every shape inside the codegen subset the batch kernel's groups
    (content and order) and states equal the interpreted fold's."""
    table, grouping, aggregates = shape
    kernel = compile_batch_aggregation(table.schema, grouping, aggregates)
    assert kernel is not None
    groups, states = kernel.fold_columns(table.columns(), len(table))
    reference = _fold_interpreted(table, grouping, aggregates)
    assert list(groups) == list(reference)
    assert list(groups.values()) == list(range(len(reference)))
    assert [list(column) for column in states] == [
        [group_states[i] for group_states in reference.values()]
        for i in range(len(aggregates))
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=40))
def test_sum_of_signed_pairs_cancels(data):
    """A value inserted and deleted (Table 1's ±expr) contributes zero."""
    signed = [value for v in data for value in (v, -v)]
    assert fold(SumReducer(), signed) == 0


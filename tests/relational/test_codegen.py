"""The compiled aggregation pipeline and its interpreted fallback.

Property-style equivalence: on null-heavy, duplicate-heavy, and
MIN/MAX-deletion-shaped workloads, the batch kernel, the interpreted fold
and a fold written out by hand must produce identical tables (content and
group order).  All aggregate values here are ints or exactly-representable
floats, so equality is exact.  Every shape the kernel declines is folded
by the interpreter and checked against a hand-computed result.
"""

import random
from contextlib import nullcontext

import pytest

from repro.relational import (
    And,
    Case,
    CountNonNullReducer,
    CountRowsReducer,
    MaxReducer,
    MinReducer,
    Not,
    Or,
    Reducer,
    Schema,
    SumReducer,
    Table,
    col,
    group_by,
    lit,
    measuring,
    project,
)
from repro.relational.codegen import compile_batch_aggregation


def standard_specs():
    """A spec list exercising every compiled reducer and expression kind."""
    return [
        ("n", lit(1), CountRowsReducer()),
        ("n_qty", col("qty"), CountNonNullReducer()),
        ("total", col("qty"), SumReducer()),
        ("weighted", col("qty") * col("weight"), SumReducer()),
        ("negated", -col("qty"), SumReducer()),
        ("lo", col("qty"), MinReducer()),
        ("hi", col("qty"), MaxReducer()),
        ("present", Case([(col("qty").is_null(), lit(0))], lit(1)), SumReducer()),
    ]


def null_heavy_table(rows=3_000, seed=5):
    """~half of every measure is NULL; some group keys are NULL too."""
    rng = random.Random(seed)
    data = [
        (
            rng.choice([None, "a", "b", "c"]),
            rng.choice([None, None, 1, 2, 3, -4]),
            rng.choice([None, None, 2, 8]),  # exactly-representable weights
        )
        for _ in range(rows)
    ]
    return Table("null_heavy", ["k", "qty", "weight"], data)


def duplicate_heavy_table(rows=3_000, seed=6):
    """Two groups, four distinct rows, massive duplication (bag semantics)."""
    rng = random.Random(seed)
    data = [
        (rng.choice(["x", "y"]), rng.choice([1, 7]), rng.choice([2, 4]))
        for _ in range(rows)
    ]
    return Table("dup_heavy", ["k", "qty", "weight"], data)


def minmax_deletion_table(rows=2_000, seed=7):
    """Shaped like a SPLIT-policy delta input: per-group insert and delete
    sides where MIN/MAX must track extremes through all-null columns."""
    rng = random.Random(seed)
    data = []
    for _ in range(rows):
        deletion = rng.random() < 0.5
        value = rng.randint(-50, 50)
        data.append(
            (
                rng.randrange(8),
                None if deletion else value,  # ins-side min/max source
                value if deletion else None,  # del-side min/max source
            )
        )
    return Table("minmax_del", ["k", "qty", "weight"], data)


WORKLOADS = [null_heavy_table, duplicate_heavy_table, minmax_deletion_table]


def hand_folded(table, keys):
    """``standard_specs()`` over *table*, folded in plain Python — no
    ``Reducer``, no ``Expression`` — in first-occurrence group order."""
    key_positions = table.schema.positions(keys)
    qty_at, weight_at = table.schema.positions(["qty", "weight"])
    groups = {}
    for row in table.rows():
        groups.setdefault(tuple(row[p] for p in key_positions), []).append(row)

    def total(values):
        present = [value for value in values if value is not None]
        return sum(present) if present else None

    out = []
    for key, members in groups.items():
        qty = [row[qty_at] for row in members]
        present = [value for value in qty if value is not None]
        weighted = [None if row[qty_at] is None or row[weight_at] is None
                    else row[qty_at] * row[weight_at] for row in members]
        out.append(key + (
            len(members), len(present), total(qty), total(weighted),
            total([None if value is None else -value for value in qty]),
            min(present) if present else None,
            max(present) if present else None,
            len(present),
        ))
    return out


class TestCompiledEquivalence:
    @pytest.mark.parametrize("make_table", WORKLOADS)
    @pytest.mark.parametrize("keys", [["k"], [], ["k", "qty"]],
                             ids=["one-key", "no-key", "two-keys"])
    @pytest.mark.parametrize("engine", ["interpreted", "batch"])
    def test_folds_match_the_hand_fold(self, make_table, keys, engine,
                                       interpreted):
        """The interpreted fold and the batch kernel both equal the fold
        written out by hand, for every grouping."""
        table = make_table()
        with interpreted() if engine == "interpreted" else nullcontext():
            grouped = group_by(table, keys, standard_specs())
        assert grouped.rows() == hand_folded(table, keys)
        assert grouped.schema.columns == tuple(keys) + tuple(
            name for name, _expr, _reducer in standard_specs()
        )

    def test_no_keys_and_empty_input(self, interpreted):
        table = Table("t", ["k", "qty", "weight"])
        specs = standard_specs()
        with interpreted():
            assert len(group_by(table, [], specs)) == 0
        assert len(group_by(table, [], specs)) == 0
        table.insert(("a", 1, 2))
        compiled = group_by(table, [], specs)
        assert len(compiled) == 1
        with interpreted():
            assert compiled.rows() == group_by(table, [], specs).rows()

    def test_group_order_is_first_occurrence(self):
        rows = [("b", 1, 2), ("a", 2, 2), ("b", 3, 2), ("c", None, None)]
        table = Table("t", ["k", "qty", "weight"], rows)
        specs = standard_specs()
        result = group_by(table, ["k"], specs)
        assert [row[0] for row in result.rows()] == ["b", "a", "c"]


class TestCompileAggregation:
    def test_supported_specs_compile(self):
        schema = Schema(["k", "qty", "weight"])
        compiled = compile_batch_aggregation(schema, ["k"], standard_specs())
        assert compiled is not None
        assert "def _fold_cols" in compiled.source

    def test_interpreted_fixture_declines_every_kernel(self, interpreted):
        from repro.relational import codegen

        schema = Schema(["k", "v"])
        specs = [("s", col("v"), SumReducer())]
        table = Table("t", ["k", "v"], [("a", 1), ("a", 2)])
        with interpreted():
            assert codegen.compile_batch_aggregation(
                schema, ["k"], specs
            ) is None
            assert codegen.compile_column_kernel([col("v")], schema) is None
            assert group_by(table, ["k"], specs).rows() == [("a", 3)]
        # Outside the block the compiled kernels are back.
        assert codegen.compile_batch_aggregation(
            schema, ["k"], specs
        ) is not None
        assert group_by(table, ["k"], specs).rows() == [("a", 3)]


class ProductReducer(Reducer):
    """A user reducer: the product of the non-null inputs."""

    def create(self):
        return None

    def step(self, state, value):
        if value is None:
            return state
        return value if state is None else state * value


class DoublingSum(SumReducer):
    """A subclassed built-in: its ``step`` is not ``SumReducer``'s."""

    def step(self, state, value):
        return super().step(state, None if value is None else 2 * value)


def non_null(values):
    return [value for value in values if value is not None]


def product(values):
    result = None
    for value in non_null(values):
        result = value if result is None else result * value
    return result


#: Every aggregate shape the batch kernel declines: (input expression,
#: reducer, the group's value by hand from its (v, w) pairs).
DECLINED = {
    "user-reducer": (
        col("v"), ProductReducer(),
        lambda pairs: product(v for v, _w in pairs),
    ),
    "subclassed-sum": (
        col("v"), DoublingSum(),
        lambda pairs: 2 * sum(non_null(v for v, _w in pairs))
        if non_null(v for v, _w in pairs) else None,
    ),
    "and-or-not-in-case": (
        Case([(And(col("v").gt(lit(1)), Not(col("w").is_null())), lit(10)),
              (Or(col("v").is_null(), col("w").lt(lit(0))), lit(1))],
             lit(0)),
        SumReducer(),
        lambda pairs: sum(
            10 if v is not None and v > 1 and w is not None
            else 1 if v is None or (w is not None and w < 0)
            else 0
            for v, w in pairs
        ),
    ),
    "count-star-over-computed": (
        col("v") + col("w"), CountRowsReducer(), len,
    ),
}

DECLINED_ROWS = [("a", 3, 1), ("b", None, 2), ("a", 1, None), ("c", 2, -4),
                 ("b", 5, 0), ("a", None, 7), ("c", 4, 3)]


#: Groupings of the declined shapes: ``w`` as a second key splits the
#: groups ``k`` alone would fold together.
KEYINGS = {"one-key": ["k"], "no-key": [], "two-keys": ["k", "w"]}


def pairs_by_key(rows, keys=("k",)):
    """``{key tuple: [(v, w), ...]}`` in first-occurrence order."""
    positions = [("k", "v", "w").index(name) for name in keys]
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[p] for p in positions), []).append(
            row[1:]
        )
    return groups


class TestDeclinedShapes:
    """What the batch kernel declines, the interpreted fold computes:
    every declined shape's result equals the fold by hand."""

    @pytest.mark.parametrize("keying", list(KEYINGS))
    @pytest.mark.parametrize("shape", list(DECLINED))
    def test_interpreted_fold_equals_the_hand_fold(self, shape, keying):
        expr, reducer, by_hand = DECLINED[shape]
        keys = KEYINGS[keying]
        table = Table("t", ["k", "v", "w"], DECLINED_ROWS)
        specs = [("x", expr, reducer)]
        assert compile_batch_aggregation(table.schema, keys, specs) is None
        assert group_by(table, keys, specs).rows() == [
            key + (by_hand(pairs),)
            for key, pairs in pairs_by_key(DECLINED_ROWS, keys).items()
        ]

    @pytest.mark.parametrize("shape", list(DECLINED))
    def test_one_declined_aggregate_declines_the_whole_fold(self, shape):
        """A supported aggregate beside a declined one is folded by the
        interpreter too, and still equals its hand fold."""
        expr, reducer, by_hand = DECLINED[shape]
        table = Table("t", ["k", "v", "w"], DECLINED_ROWS)
        specs = [("total", col("v"), SumReducer()), ("x", expr, reducer),
                 ("hi", col("w"), MaxReducer())]
        assert compile_batch_aggregation(table.schema, ["k"], specs[::2])
        assert compile_batch_aggregation(table.schema, ["k"], specs) is None
        expected = []
        for key, pairs in pairs_by_key(DECLINED_ROWS).items():
            v_present = non_null(v for v, _w in pairs)
            expected.append(key + (
                sum(v_present) if v_present else None,
                by_hand(pairs),
                max(non_null(w for _v, w in pairs), default=None),
            ))
        assert group_by(table, ["k"], specs).rows() == expected

    def test_unhashable_literal(self, interpreted):
        """An unhashable literal cannot key a kernel cache, so its kernel
        is compiled uncached; the kernel and the interpreted fold (and the
        column kernel of a projection) all equal the hand fold."""
        table = Table("t", ["k", "v", "w"], DECLINED_ROWS)
        specs = [("reps", col("v") * lit([7]), SumReducer())]
        expected = [
            key + ([7] * sum(non_null(v for v, _w in pairs))
                   if non_null(v for v, _w in pairs) else None,)
            for key, pairs in pairs_by_key(DECLINED_ROWS).items()
        ]
        projected = [(None if v is None else [7] * v,)
                     for _k, v, _w in DECLINED_ROWS]
        for engine in (nullcontext, interpreted):
            with engine():
                assert group_by(table, ["k"], specs).rows() == expected
                assert project(
                    table, [("reps", col("v") * lit([7]))]
                ).rows() == projected


class TestScanAccounting:
    def test_group_by_charges_full_scan(self):
        table = Table("t", ["k", "v"], [("a", 1), ("a", 2), ("b", 3)])
        with measuring() as stats:
            group_by(table, ["k"], [("s", col("v"), SumReducer())])
        assert stats.rows_scanned == 3

    def test_kernels_charge_like_the_interpreter(self, interpreted):
        """The access ledger does not depend on which fold ran."""
        rows = [(k % 7, k) for k in range(700)]
        specs = [("total", col("v"), SumReducer())]
        charged = {}
        for engine in ("interpreted", "batch"):
            table = Table("t", ["k", "v"], rows)
            with interpreted() if engine == "interpreted" else nullcontext():
                with measuring() as stats:
                    result = group_by(table, ["k"], specs)
            assert len(result) == 7
            charged[engine] = stats.as_dict()
        assert charged["batch"] == charged["interpreted"]
        assert charged["batch"]["rows_scanned"] == 700


"""The compiled aggregation pipeline.

Property-style equivalence: on null-heavy, duplicate-heavy, and
MIN/MAX-deletion-shaped workloads, the interpreted and the compiled
``group_by`` must produce identical tables (content and group order).
All aggregate values here are ints or exactly-representable floats, so
equality is exact.
"""

import random

import pytest

from repro.relational import (
    Case,
    CountNonNullReducer,
    CountRowsReducer,
    MaxReducer,
    MinReducer,
    Reducer,
    Schema,
    SumReducer,
    Table,
    col,
    compile_aggregation,
    group_by,
    lit,
    measuring,
)


@pytest.fixture(autouse=True)
def codegen_on(monkeypatch):
    """These tests compare the compiled kernels with the interpreter: pin
    codegen on so CI's ``REPRO_CODEGEN=0`` leg does not mask them (the
    kill-switch tests set the variable themselves)."""
    monkeypatch.delenv("REPRO_CODEGEN", raising=False)


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


class TestCompiledEquivalence:
    @pytest.mark.parametrize("make_table", WORKLOADS)
    def test_compiled_matches_interpreted(self, make_table):
        table = make_table()
        specs = standard_specs()
        interpreted = group_by(table, ["k"], specs, compiled=False)
        compiled = group_by(table, ["k"], specs, compiled=True)
        assert compiled.rows() == interpreted.rows()
        assert compiled.schema == interpreted.schema

    @pytest.mark.parametrize("make_table", WORKLOADS)
    @pytest.mark.parametrize("keys", [["k"], [], ["k", "qty"]],
                             ids=["one-key", "no-key", "two-keys"])
    @pytest.mark.parametrize("storage", ["row", "column"])
    def test_kernels_match_interpreted(self, make_table, keys, storage):
        """Row storage takes the compiled row fold, column storage the
        batch kernel; both equal the interpreter for every grouping."""
        source = make_table()
        table = Table(source.name, source.schema, source.rows(),
                      storage=storage)
        specs = standard_specs()
        interpreted = group_by(table, keys, specs, compiled=False)
        compiled = group_by(table, keys, specs)
        assert compiled.rows() == interpreted.rows()
        assert compiled.schema == interpreted.schema
        assert compiled.storage == table.storage

    def test_no_keys_and_empty_input(self):
        table = Table("t", ["k", "qty", "weight"])
        specs = standard_specs()
        assert len(group_by(table, [], specs, compiled=False)) == 0
        table.insert(("a", 1, 2))
        compiled = group_by(table, [], specs)
        assert len(compiled) == 1
        assert compiled.rows() == group_by(table, [], specs,
                                           compiled=False).rows()

    def test_group_order_is_first_occurrence(self):
        rows = [("b", 1, 2), ("a", 2, 2), ("b", 3, 2), ("c", None, None)]
        table = Table("t", ["k", "qty", "weight"], rows)
        specs = standard_specs()
        result = group_by(table, ["k"], specs)
        assert [row[0] for row in result.rows()] == ["b", "a", "c"]


class TestCompileAggregation:
    def test_supported_specs_compile(self):
        schema = Schema(["k", "qty", "weight"])
        compiled = compile_aggregation(schema, ["k"], standard_specs())
        assert compiled is not None
        assert "def _fold" in compiled.source

    def test_custom_reducer_falls_back(self):
        class MedianishReducer(Reducer):
            def create(self):
                return []

            def step(self, state, value):
                state.append(value)
                return state

            def finalize(self, state):
                return sorted(x for x in state if x is not None)[0] if state else None

        schema = Schema(["k", "v"])
        specs = [("m", col("v"), MedianishReducer())]
        assert compile_aggregation(schema, ["k"], specs) is None
        # group_by transparently falls back to the interpreter.
        table = Table("t", ["k", "v"], [("a", 3), ("a", 1), ("b", 2)])
        result = group_by(table, ["k"], specs)
        assert result.sorted_rows() == [("a", 1), ("b", 2)]

    def test_subclassed_known_reducer_falls_back(self):
        class DoublingSum(SumReducer):
            def step(self, state, value):
                return super().step(state, None if value is None else 2 * value)

        schema = Schema(["k", "v"])
        assert compile_aggregation(
            schema, ["k"], [("s", col("v"), DoublingSum())]
        ) is None
        table = Table("t", ["k", "v"], [("a", 3), ("a", 1)])
        result = group_by(table, ["k"], [("s", col("v"), DoublingSum())])
        assert result.rows() == [("a", 8)]

    def test_compiled_true_raises_when_unsupported(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "0")
        table = Table("t", ["k", "v"], [("a", 1)])
        with pytest.raises(ValueError, match="codegen"):
            group_by(table, ["k"], [("s", col("v"), SumReducer())],
                     compiled=True)

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "0")
        schema = Schema(["k", "v"])
        assert compile_aggregation(
            schema, ["k"], [("s", col("v"), SumReducer())]
        ) is None


class TestScanAccounting:
    def test_group_by_charges_full_scan(self):
        table = Table("t", ["k", "v"], [("a", 1), ("a", 2), ("b", 3)])
        with measuring() as stats:
            group_by(table, ["k"], [("s", col("v"), SumReducer())])
        assert stats.rows_scanned == 3

    @pytest.mark.parametrize("storage", ["row", "column"])
    def test_kernels_charge_like_the_interpreter(self, storage):
        """The access ledger does not depend on which fold ran."""
        rows = [(k % 7, k) for k in range(700)]
        specs = [("total", col("v"), SumReducer())]
        charged = {}
        for compiled in (False, None):
            table = Table("t", ["k", "v"], rows, storage=storage)
            with measuring() as stats:
                result = group_by(table, ["k"], specs, compiled=compiled)
            assert len(result) == 7
            charged[compiled] = stats.as_dict()
        assert charged[None] == charged[False]
        assert charged[None]["rows_scanned"] == 700


"""Physical operators: select, project, joins, unions, distinct."""

import pytest

from repro.errors import TableError
from repro.relational import (
    Table,
    col,
    distinct,
    hash_join,
    left_outer_join,
    lit,
    project,
    rows_from,
    select,
    union_all,
)
from repro.relational.stats import measuring


@pytest.fixture
def left():
    return Table("l", ["k", "v"], [(1, "a"), (2, "b"), (2, "c"), (None, "n")])


@pytest.fixture
def right():
    return Table("r", ["k", "w"], [(1, 10.0), (2, 20.0), (3, 30.0)])


class TestSelect:
    def test_filters_rows(self, left):
        result = select(left, col("k").eq(lit(2)))
        assert result.rows() == [(2, "b"), (2, "c")]

    def test_null_rows_filtered_out(self, left):
        result = select(left, col("k").ge(lit(0)))
        assert (None, "n") not in result.rows()

    def test_input_not_mutated(self, left):
        select(left, col("k").eq(lit(1)))
        assert len(left) == 4


class TestProject:
    def test_reorders_and_computes(self, left):
        result = project(left, [("v", col("v")), ("k2", col("k") * lit(2))])
        assert result.schema.columns == ("v", "k2")
        assert result.rows()[0] == ("a", 2)

    def test_keeps_duplicates(self):
        table = Table("t", ["a"], [(1,), (1,)])
        assert len(project(table, [("a", col("a"))])) == 2

    def test_null_in_computed_column(self, left):
        result = project(left, [("k2", col("k") + lit(1))])
        assert result.rows()[-1] == (None,)


class TestDistinct:
    def test_removes_duplicates(self):
        table = Table("t", ["a", "b"], [(1, 2), (1, 2), (3, 4)])
        assert distinct(table).rows() == [(1, 2), (3, 4)]

    def test_null_rows_deduplicated(self):
        table = Table("t", ["a"], [(None,), (None,)])
        assert len(distinct(table)) == 1


class TestUnionAll:
    def test_concatenates(self):
        first = Table("a", ["x"], [(1,)])
        second = Table("b", ["x"], [(2,), (1,)])
        assert union_all([first, second]).rows() == [(1,), (2,), (1,)]

    def test_schema_mismatch_raises(self):
        first = Table("a", ["x"], [])
        second = Table("b", ["y"], [])
        with pytest.raises(TableError, match="schema mismatch"):
            union_all([first, second])

    def test_empty_input_list_raises(self):
        with pytest.raises(TableError):
            union_all([])


class TestHashJoin:
    def test_basic_join(self, left, right):
        result = hash_join(left, right, on=[("k", "k")])
        assert result.schema.columns == ("k", "v", "r.k", "w")
        assert sorted(result.rows()) == [
            (1, "a", 1, 10.0),
            (2, "b", 2, 20.0),
            (2, "c", 2, 20.0),
        ]

    def test_null_keys_never_match(self, left):
        null_side = Table("r", ["k", "w"], [(None, 0.0)])
        result = hash_join(left, null_side, on=[("k", "k")])
        assert len(result) == 0

    def test_uses_right_index_when_present(self, left, right):
        right.create_index(["k"])
        result = hash_join(left, right, on=[("k", "k")])
        assert len(result) == 3

    def test_composite_keys(self):
        first = Table("a", ["x", "y", "p"], [(1, 1, "q"), (1, 2, "r")])
        second = Table("b", ["x", "y", "s"], [(1, 2, "z")])
        result = hash_join(first, second, on=[("x", "x"), ("y", "y")])
        assert result.rows() == [(1, 2, "r", 1, 2, "z")]

    def test_empty_on_raises(self, left, right):
        with pytest.raises(TableError):
            hash_join(left, right, on=[])

    def test_bag_semantics_multiplicities(self):
        first = Table("a", ["k"], [(1,), (1,)])
        second = Table("b", ["k", "v"], [(1, "x"), (1, "y")])
        result = hash_join(first, second, on=[("k", "k")])
        assert len(result) == 4


def typed(name, columns, rows, storage):
    """A table whose numeric columns are typed arrays when columnar."""
    table = Table(name, columns, storage=storage)
    table.append_batch([list(column) for column in zip(*rows)])
    return table


class TestGatherJoin:
    """A unique index on the right side's join columns selects the gather
    join; the same join against an unindexed copy (the hash join that
    builds row tuples) is the reference."""

    LEFT = [(1, 10, "a"), (2, 20, "b"), (None, 30, "n"), (9, 40, "x"),
            (2, None, "c"), (3, 10, "d")]
    RIGHT = [(1, 10, 1.5), (2, 20, 2.5), (3, 10, 3.5), (4, 40, 4.5), (5, 50, 5.5)]

    @pytest.mark.parametrize("on", [
        [("k", "k")], [("k", "k"), ("j", "j")],
    ])
    @pytest.mark.parametrize("storage", ["row", "column"])
    @pytest.mark.parametrize("build", [Table, typed])
    def test_equals_the_row_path(self, build, storage, on):
        left = build("l", ["k", "j", "v"], self.LEFT, storage=storage)
        indexed = build("r", ["k", "j", "w"], self.RIGHT, storage=storage)
        plain = build("r", ["k", "j", "w"], self.RIGHT, storage=storage)
        for right in (indexed, plain):
            right.delete_slot(3)            # a tombstone mid-table
        indexed.create_index([right_col for _l, right_col in on], unique=True)

        with measuring() as gathered:
            result = hash_join(left, indexed, on=on)
        with measuring() as hashed:
            expected = hash_join(left, plain, on=on)
        # Conflicting right-side names are prefixed, nulls and dangling
        # keys (9; 2 with a null j) drop out, the tombstone never matches.
        assert result.schema.columns == ("k", "j", "v", "r.k", "r.j", "w")
        assert result.sorted_rows() == expected.sorted_rows()
        assert len(result) == (4 if len(on) == 1 else 3)
        probes = sum(
            None not in [row[i] for i in range(len(on))] for row in self.LEFT
        )
        assert (gathered.rows_scanned, gathered.index_lookups,
                gathered.rows_inserted) == (len(left), probes, len(result))
        assert hashed.rows_inserted == gathered.rows_inserted
        assert hashed.index_lookups == 0

    def test_carries_only_the_named_right_columns(self):
        left = Table("l", ["k", "v"], [(1, "a"), (7, "b"), (2, "c")])
        right = Table("r", ["k", "w", "z"], [(1, 10, "p"), (2, 20, "q")])
        right.create_index(["k"], unique=True)
        pruned = hash_join(left, right, on=[("k", "k")], right_columns=["z"])
        assert pruned.schema.columns == ("k", "v", "z")
        assert pruned.rows() == [(1, "a", "p"), (2, "c", "q")]
        bare = hash_join(left, right, on=[("k", "k")], right_columns=[])
        assert bare.schema.columns == ("k", "v")
        assert bare.rows() == [(1, "a"), (2, "c")]      # still an inner join
        unindexed = Table("r", ["k", "w", "z"], right.rows())
        assert hash_join(
            left, unindexed, on=[("k", "k")], right_columns=["z"]
        ).rows() == pruned.rows()

    def test_a_non_unique_index_is_not_probed(self):
        """Only a unique index selects the gather join; a right side with a
        non-unique index is hashed, and both sides are charged as scans."""
        left = Table("l", ["k"], [(1,), (2,), (None,), (7,)])
        right = Table("r", ["k", "w"], [(1, "a"), (1, "b"), (2, "c"), (3, "d")])
        right.create_index(["k"])
        with measuring() as stats:
            result = hash_join(left, right, on=[("k", "k")])
        assert result.sorted_rows() == [(1, 1, "a"), (1, 1, "b"), (2, 2, "c")]
        assert (stats.rows_scanned, stats.index_lookups, stats.rows_inserted) \
            == (len(left) + len(right), 0, 3)

    @pytest.mark.parametrize("build", [Table, typed])
    def test_result_owns_its_columns(self, build):
        left = build("l", ["k", "v"], [(1, 1), (2, 2)], storage="column")
        right = build("r", ["k", "w"], [(1, 10), (2, 20)], storage="column")
        right.create_index(["k"], unique=True)
        joined = hash_join(left, right, on=[("k", "k")])    # every row hits
        kept = joined.rows()
        left.insert((3, 3))
        left.update_slot(0, (1, None))
        right.update_slot(0, (1, "w"))
        assert joined.rows() == kept
        joined.insert((5, 5, 5, 5))
        assert left.rows() == [(1, None), (2, 2), (3, 3)]


@pytest.mark.parametrize("build", [Table, typed])
def test_passed_through_columns_are_copied(build):
    """An all-pass select and a union hand on whole input columns: the
    result holds copies of them, typed like any fresh batch where the
    result is columnar (``REPRO_COLUMNAR=0`` makes it row storage)."""
    source = build("s", ["k", "v"], [(1, 1.5), (2, 2.5)], storage="column")
    results = [select(source, col("k").ge(lit(0))), union_all([source, source])]
    kept = [result.rows() for result in results]
    source.update_slot(0, (None, "x"))
    source.insert((3, 3.5))
    assert [result.rows() for result in results] == kept
    for result in results:
        if result.storage == "column":
            assert [column.typecode for column in result.columns()] == ["q", "d"]
        result.insert((9, None))
    assert source.rows() == [(None, "x"), (2, 2.5), (3, 3.5)]


class TestLeftOuterJoin:
    def test_unmatched_left_rows_padded(self, left, right):
        result = left_outer_join(left, right, on=[("k", "k")])
        padded = [row for row in result.rows() if row[2] is None]
        # The null-key row never matches and is padded.
        assert (None, "n", None, None) in padded

    def test_all_left_rows_present(self, left, right):
        result = left_outer_join(left, right, on=[("k", "k")])
        assert len(result) == 4

    def test_empty_on_raises(self, left, right):
        with pytest.raises(TableError):
            left_outer_join(left, right, on=[])


class TestRowsFrom:
    def test_builds_ad_hoc_table(self):
        table = rows_from(["a", "b"], [(1, 2)], name="adhoc")
        assert table.name == "adhoc"
        assert table.rows() == [(1, 2)]

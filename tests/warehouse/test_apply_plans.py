"""``ChangeSet.apply_to``: the index plan against the scan plan.

The two plans differ only in where the candidate base rows come from, so
on any base and any batch they must doom the same slots in the same order
— generated here over bags with duplicate rows, tombstones and recycled
slots — and what they cost is gated on counts
from the ``apply_base`` span, not on a clock.
"""

from contextlib import nullcontext
from typing import Any, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InconsistentDeltaError, TableError
from repro.obs import tracing
from repro.relational import Table
from repro.warehouse import ChangeSet

COLUMNS = ["a", "b", "d", "v"]
INDEX_SETS = [
    (),
    (("a", "b"),),
    (("a",), ("a", "b", "d")),
]

# Narrow domains: most rows have duplicates, and most index keys hold
# rows that differ in the columns the index does not cover.
ROW = st.tuples(
    st.integers(0, 3), st.integers(0, 2), st.integers(0, 3), st.integers(0, 1)
)


@pytest.fixture(autouse=True)
def isolated_tracing(monkeypatch):
    """Span-inspecting tests need a fresh recorder, whatever REPRO_TRACE says."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    previous = tracing.active_recorder()
    tracing.install_recorder(None)
    yield
    tracing.install_recorder(previous)


def build(rows, holes, refills, index_set):
    """A base with a history: loaded, some slots deleted, some of those
    recycled by later inserts, then indexed."""
    table = Table("t", COLUMNS)
    table.insert_many(rows)
    table.delete_slots(sorted({hole % len(rows) for hole in holes}))
    table.insert_many(refills)
    for columns in index_set:
        table.create_index(columns)
    table.track_domain("d")
    return table


def state(table):
    """Everything ``apply_to`` may touch, bucket and free-list order
    included."""
    return (
        list(table._rows),                                      # noqa: SLF001
        list(table._free_slots),                                # noqa: SLF001
        {columns: {key: list(index.slots_of(key)) for key in index.keys()}
         for columns, index in table.indexes.items()},
        sorted(table.domain("d")),
    )


class Applied(NamedTuple):
    span: Any                  # the ``apply_base`` span
    doomed: list               # the slots handed to ``delete_slots``, in order
    error: Exception | None    # the refusal, if the batch was refused


def apply(changes, table, hide_indexes=False):
    """Apply *changes* under a recorder.  *hide_indexes* makes the planner
    see no index, which is how a test gets the scan plan on an indexed
    base; the mutators still maintain every index."""
    doomed = []
    delete_slots = table.delete_slots

    def spy(slots):
        doomed.extend(slots)
        return delete_slots(slots)

    hidden = mock.patch.object(
        type(table), "indexes", mock.PropertyMock(return_value={})
    ) if hide_indexes else nullcontext()
    error = None
    with tracing.trace() as recorder, hidden, \
            mock.patch.object(table, "delete_slots", spy):
        try:
            changes.apply_to(table)
        except InconsistentDeltaError as refusal:
            error = refusal
        (span,) = recorder.spans("apply_base")
    return Applied(span, doomed, error)


def change_set(deletes, inserts=()):
    changes = ChangeSet("t", COLUMNS)
    changes.delete_many(deletes)
    changes.insert_many(inserts)
    return changes


@settings(max_examples=60, deadline=None)
@given(
    index_set=st.sampled_from(INDEX_SETS),
    rows=st.lists(ROW, min_size=40, max_size=80),
    holes=st.lists(st.integers(0, 79), max_size=10),
    refills=st.lists(ROW, max_size=12),
    inserts=st.lists(ROW, max_size=4),
    data=st.data(),
)
def test_both_plans_doom_the_same_slots(
    index_set, rows, holes, refills, inserts, data
):
    by_index = build(rows, holes, refills, index_set)
    by_scan = build(rows, holes, refills, index_set)
    assert state(by_index) == state(by_scan)
    live = by_index.rows()
    # Under the 1/8 rule, so an indexed base takes the index plan; picking
    # positions (not values) repeats a duplicated row in the batch.
    picks = data.draw(st.lists(
        st.integers(0, len(live) - 1), unique=True,
        min_size=1, max_size=(len(live) - 1) // 8,
    ))
    if refills and data.draw(st.booleans()):
        # Favour a row that went into a recycled slot: it may have a
        # twin at a higher slot, which the scan meets later.
        picks = list(dict.fromkeys([live.index(refills[0])] + picks[1:]))
    deletes = [live[pick] for pick in picks]

    slot_rows = list(by_index._rows)                            # noqa: SLF001
    span, doomed, error = apply(change_set(deletes, inserts), by_index)
    scan_span, scan_doomed, scan_error = apply(
        change_set(deletes, inserts), by_scan, hide_indexes=True
    )

    assert error is None and scan_error is None
    assert span.tags["plan"] == ("index" if index_set else "scan")
    assert scan_span.tags["plan"] == "scan"
    assert doomed == scan_doomed
    assert sorted(slot_rows[slot] for slot in doomed) == sorted(deletes)
    assert state(by_index) == state(by_scan)
    assert by_index.verify_indexes()
    assert span.counters["deleted"] == len(deletes)
    assert span.counters["inserted"] == len(inserts)
    assert span.counters["candidate_rows"] <= scan_span.counters["candidate_rows"]


@settings(max_examples=40, deadline=None)
@given(
    index_set=st.sampled_from(INDEX_SETS),
    rows=st.lists(ROW, min_size=45, max_size=80),
    holes=st.lists(st.integers(0, 79), max_size=10),
    refills=st.lists(ROW, max_size=12),
    fault=st.sampled_from(["one too many", "same key, other row"]),
    hide_indexes=st.booleans(),
)
def test_inconsistent_batch_is_refused_under_both_plans(
    index_set, rows, holes, refills, fault, hide_indexes
):
    base = build(rows, holes, refills, index_set)
    live = base.rows()
    # A duplicated row if there is one, the least duplicated of them.
    victim = min(live, key=lambda row: (live.count(row) < 2, live.count(row)))
    if fault == "one too many":
        bad = [victim] * (live.count(victim) + 1)
    else:
        # Every index here is on a prefix of (a, b, d): the key is
        # present, the row with this ``v`` is not.
        bad = [victim[:3] + (9,)]
    deletes = [live[0]] + bad       # one good deletion goes down with it
    before = state(base)
    span, doomed, error = apply(
        change_set(deletes, [(0, 0, 0, 0)]), base, hide_indexes
    )
    assert isinstance(error, InconsistentDeltaError)
    assert "match no row" in str(error) and repr(victim[:3])[:-1] in str(error)
    if 8 * len(deletes) < len(base):
        indexed = bool(index_set) and not hide_indexes
        assert span.tags["plan"] == ("index" if indexed else "scan")
    assert doomed == [] and state(base) == before
    assert base.verify_indexes()


def test_first_occurrence_is_the_scan_s_not_the_lowest_slot():
    twin, other = (0, 0, 0, 0), (1, 1, 3, 1)
    base = build([twin, other, twin] + [other] * 9, [0], [twin],
                 (("a", "b"),))
    # Slot 0 was recycled: a scan goes in slot order, so it meets slot 0
    # before slot 2.
    first = next(slot for slot, row in base.slots() if row == twin)
    assert first == 0
    span, doomed, error = apply(change_set([twin]), base)
    assert error is None and span.tags["plan"] == "index"
    assert doomed == [first]


def keyed_rows(n):
    """*n* distinct rows, two to each value of ``a``."""
    return [(i // 2, i % 7, i % 5, i) for i in range(n)]


class TestCountGate:
    """What the index plan reads depends on the batch, not on the base."""

    N = 1_000

    def candidates(self, n, deletes):
        base = Table("t", COLUMNS, keyed_rows(n))
        index = base.create_index(["a"])
        probed = sum(len(index.lookup((row[0],))) for row in set(deletes))
        span, _doomed, error = apply(change_set(deletes), base)
        assert error is None and span.tags["plan"] == "index"
        assert span.counters["deleted"] == len(deletes)
        return span.counters["candidate_rows"], probed

    def test_candidate_rows_do_not_grow_with_the_base(self):
        deletes = keyed_rows(self.N)[100:600:10]
        assert len(deletes) == 50
        small, probed = self.candidates(self.N, deletes)
        large, _ = self.candidates(10 * self.N, deletes)
        assert small == large <= probed == 100

    def test_large_batch_scans(self):
        base = Table("t", COLUMNS, keyed_rows(self.N))
        base.create_index(["a"])
        deletes = keyed_rows(self.N)[0:500:4]        # 125 rows: 8 x 125 >= N
        span, doomed, _error = apply(change_set(deletes), base)
        assert span.tags["plan"] == "scan"
        # The scan stops at the last deletion it was looking for.
        assert span.counters["candidate_rows"] == doomed[-1] + 1 == 497
        assert span.counters["candidate_rows"] <= self.N

    def test_no_deletions_resolve_nothing(self):
        base = Table("t", COLUMNS, keyed_rows(20))
        span, doomed, _error = apply(change_set([], [(1, 1, 1, 1)]), base)
        assert doomed == [] and "plan" not in span.tags
        assert "candidate_rows" not in span.counters
        assert (span.counters["deleted"], span.counters["inserted"]) == (0, 1)


def test_take_projects_columns():
    table = build(keyed_rows(12), [3, 8], [(9, 9, 3, 9)], ())
    slots = [10, 0, 8, 5]                  # 8 was recycled by the refill
    whole = table.take(slots)
    assert list(zip(*whole)) == [table.row_at(slot) for slot in slots]
    for names in (["v", "a"], ["d"], []):
        assert table.take(slots, names) == [
            whole[COLUMNS.index(name)] for name in names
        ]
    assert table.take([], ["b"]) == [[]]
    for names in (None, ["a"]):
        with pytest.raises(TableError, match="slot 3 is empty"):
            table.take([0, 3, 5], names)

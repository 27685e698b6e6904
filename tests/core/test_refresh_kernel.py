"""Figure 7's column kernel against its per-tuple reference.

:func:`repro.core.refresh.decide_columns` decides a whole summary delta a
column at a time; :func:`repro.sqlite_backend.warehouse.decide` is
Figure 7's per-tuple body, one delta tuple at a time.  On generated
summary tables and deltas — NULL measures, emptied groups, cancelled and
negative new-group deltas, threatened and unthreatened extrema, and under
SPLIT the deletion-side footprint on a new group — the two take the same
actions and leave the same table under both MIN/MAX policies, and raise
the same exception class on an inconsistent delta.  Since the reference
shares :class:`~repro.core.refresh.RefreshPlan` with the kernel, both are
also checked against an oracle that knows neither: base rows changed and
aggregated from scratch, and literal rows for the cases where this
refresh's results differ from earlier versions'.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates import CountStar, Max, Min, Sum
from repro.core.deltas import MinMaxPolicy, SummaryDelta, delta_schema
from repro.core.refresh import GroupLocator, RefreshPlan, decide_columns, refresh
from repro.errors import InconsistentDeltaError
from repro.obs.audit import rows_certificate
from repro.relational import Table, col
from repro.sqlite_backend.warehouse import decide
from repro.views import MaterializedView, SummaryViewDefinition

from ..conftest import make_items, make_pos, make_stores

DEFINITION = SummaryViewDefinition.create(
    "kernel_sales",
    make_pos(make_stores(), make_items(), rows=[]),
    group_by=["storeID", "date"],
    aggregates=[
        ("n", CountStar()),
        ("units", Sum(col("qty"))),
        ("low", Min(col("price"))),
        ("high", Max(col("price"))),
    ],
).resolved()
STORAGE = DEFINITION.storage_schema().columns
ARITY = len(DEFINITION.group_by)
N_UNITS = DEFINITION.count_column_for(col("qty"))
N_PRICE = DEFINITION.count_column_for(col("price"))
KEYS = [(store, date) for store in (1, 2, 3) for date in (1, 2)]
POLICIES = [MinMaxPolicy.PAPER, MinMaxPolicy.SPLIT]

small = st.integers(0, 4)
maybe = st.one_of(st.none(), small)


@st.composite
def summary_rows(draw):
    """A consistent stored group per chosen key: COUNT(e) within
    COUNT(*), NULL measures exactly where COUNT(e) is 0, MIN <= MAX."""
    rows = []
    for key in draw(st.lists(st.sampled_from(KEYS), unique=True)):
        n = draw(st.integers(1, 4))
        n_units, n_price = draw(st.integers(0, n)), draw(st.integers(0, n))
        low = draw(small) if n_price else None
        values = {
            "n": n,
            N_UNITS: n_units,
            "units": draw(small) if n_units else None,
            N_PRICE: n_price,
            "low": low,
            "high": None if low is None else low + draw(st.integers(0, 2)),
        }
        rows.append(key + tuple(values[name] for name in STORAGE[ARITY:]))
    return rows


def delta_rows(policy, stored):
    """Delta tuples on distinct keys, some held by the view and some not:
    any COUNT(*) change (negative, zero, and on a new group rarely NULL),
    NULL or small measures, and under SPLIT insertion- and deletion-side
    extrema."""
    extra = [name for name in delta_schema(DEFINITION, policy).columns
             if name not in STORAGE]
    held = {row[:ARITY] for row in stored}

    @st.composite
    def build(draw):
        rows = []
        for key in draw(st.lists(st.sampled_from(KEYS), unique=True)):
            counts = st.integers(-3, 3)
            if key not in held and draw(st.integers(0, 9)) == 0:
                counts = st.none()
            values = {
                "n": draw(counts),
                N_UNITS: draw(st.integers(-2, 2)),
                "units": draw(maybe),
                N_PRICE: draw(st.integers(-2, 2)),
                "low": draw(maybe),
                "high": draw(maybe),
            }
            values.update({name: draw(maybe) for name in extra})
            rows.append(key + tuple(values[name] for name in STORAGE[ARITY:])
                        + tuple(values[name] for name in extra))
        return rows

    return build()


def prepared(stored, changes, policy):
    """A shadow of a view holding *stored*, and the delta *changes*."""
    view = MaterializedView(DEFINITION, Table("kernel_sales", STORAGE, stored))
    delta = SummaryDelta(
        DEFINITION,
        Table("delta", delta_schema(DEFINITION, policy), changes),
        policy,
    )
    return view, delta


def fake_recompute(stored, changes):
    """Base data stand-in: each flagged group's MIN/MAX values, present
    exactly where its new COUNT(price) is positive (``None`` otherwise)."""
    position = STORAGE.index(N_PRICE)
    counts = {row[:ARITY]: row[position] for row in stored}
    for row in changes:
        key = row[:ARITY]
        counts[key] = counts.get(key, 0) + row[position]

    def recompute(keys):
        return {
            key: (key[1], key[0] + 9) if counts[key] > 0 else (None, None)
            for key in keys
        }

    return recompute


def reference(table, delta, recompute):
    """Figure 7 one delta tuple at a time: every decision by the
    per-tuple ``decide``, applied row by row to *table*; returns the
    actions as rows, by kind."""
    plan = RefreshPlan(DEFINITION, delta.policy)
    index = table.index_on(list(DEFINITION.group_by))
    actions = {"insert": [], "delete": [], "update": [], "recompute": {}}
    for delta_row in delta.table.rows():
        key = delta_row[:ARITY]
        slot = index.lookup_one(key)
        old_row = None if slot is None else table.row_at(slot)
        action, row = decide(plan, DEFINITION.name, old_row, delta_row, key)
        if action == "insert":
            actions["insert"].append(row)
        elif action == "delete":
            actions["delete"].append(slot)
        elif action == "update":
            actions["update"].append((slot, row))
        elif action == "recompute":
            actions["recompute"][key] = (slot, row)
    for row in actions["insert"]:
        table.insert(row)
    for slot in actions["delete"]:
        table.delete_slot(slot)
    for slot, row in actions["update"]:
        table.update_slot(slot, row)
    fresh = recompute(list(actions["recompute"]))
    for key, (slot, row) in actions["recompute"].items():
        row = list(row)
        for column, value in zip(plan.minmax, fresh[key]):
            row[column.storage_index] = value
        if slot is None:
            table.insert(tuple(row))
        else:
            table.update_slot(slot, tuple(row))
    return actions


def kernel(table, delta):
    """The column kernel's actions, as the reference's rows by kind."""
    view = MaterializedView(DEFINITION, table)
    shadow = view.begin_version()
    actions = decide_columns(
        shadow.table, delta, RefreshPlan(DEFINITION, delta.policy),
        GroupLocator(shadow),
    )
    return {
        "insert": list(zip(*actions.inserts)),
        "delete": actions.deletes,
        "update": [
            (slot, table.row_at(slot)[:ARITY] + aggregates)
            for slot, aggregates in zip(actions.update_at,
                                        zip(*actions.updates))
        ],
        "recompute": {
            row[:ARITY]: (slot, row)
            for slot, row in zip(actions.recompute_at,
                                 zip(*actions.recomputes))
        },
    }


def check(stored, changes, policy):
    """Kernel and reference agree, or both raise the same class; returns
    the reference's actions (``None`` when both raised)."""
    view, delta = prepared(stored, changes, policy)
    recompute = fake_recompute(stored, changes)
    expected_table = Table("reference", STORAGE, stored)
    expected_table.create_index(list(DEFINITION.group_by), unique=True)
    try:
        expected = reference(expected_table, delta, recompute)
    except Exception as error:  # noqa: BLE001 — compared by class below
        with pytest.raises(type(error)):
            kernel(Table("k", STORAGE, stored), delta)
        with pytest.raises(type(error)):
            refresh(view.begin_version(), delta, recompute)
        assert view.table.rows() == list(map(tuple, stored))
        return None
    assert kernel(Table("k", STORAGE, stored), delta) == expected

    shadow = view.begin_version()
    stats = refresh(shadow, delta, recompute)
    assert shadow.table.sorted_rows() == expected_table.sorted_rows()
    assert (stats.inserted, stats.deleted, stats.updated, stats.recomputed) \
        == tuple(map(len, expected.values()))
    assert shadow.table.verify_indexes()
    assert shadow.certificate.value == rows_certificate(shadow.table.rows())
    view.publish(shadow)     # the certificate holds at every written slot
    return expected


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernel_equals_the_per_tuple_reference(policy, data):
    stored = data.draw(summary_rows())
    check(stored, data.draw(delta_rows(policy, stored)), policy)


def row(key, n, units, n_units, low, high, n_price, *split):
    values = {"n": n, "units": units, N_UNITS: n_units, "low": low,
              "high": high, N_PRICE: n_price}
    return key + tuple(values[name] for name in STORAGE[ARITY:]) + split


STORED = [row((1, 1), 3, 6, 3, 2, 4, 3), row((2, 1), 1, None, 0, None, None, 0)]


def delta_row(policy, key, n, units, n_units, low, high, n_price):
    """A delta tuple; under SPLIT its MIN/MAX values go on the insertion
    side, and for a group the view holds on the deletion side too."""
    if policy is MinMaxPolicy.PAPER:
        return row(key, n, units, n_units, low, high, n_price)
    held = key in {stored[:ARITY] for stored in STORED}
    return row(key, n, units, n_units, low, high, n_price,
               low, low if held else None, high, high if held else None)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("case,changes,kinds", [
    ("emptied group", [((1, 1), -3, -6, -3, 2, 4, -3)], {"delete": 1}),
    ("NULL measures", [((2, 1), 1, None, 0, None, None, 0),
                       ((1, 1), 1, None, 0, None, None, 0)], {"update": 2}),
    ("SUM back to NULL", [((1, 1), -1, -6, -3, 3, 3, -1)], {"update": 1}),
    ("unthreatened extrema", [((1, 1), 1, 1, 1, 3, 3, 1)], {"update": 1}),
    ("threatened MIN", [((1, 1), -1, -1, -1, 2, 2, -1)], {"recompute": 1}),
    ("threatened MAX", [((1, 1), -1, -1, -1, 4, 4, -1)], {"recompute": 1}),
    ("cancelled new group", [((3, 2), 0, 0, 0, 1, 1, 0)], {}),
    ("new group", [((3, 2), 2, None, 0, 1, 3, 2)], {"insert": 1}),
])
def test_each_figure7_case(policy, case, changes, kinds):
    expected = check(
        STORED, [delta_row(policy, *change) for change in changes], policy
    )
    got = {kind: len(actions) for kind, actions in expected.items() if actions}
    assert got == kinds, case


def test_split_footprint_on_a_new_group_recomputes():
    """Under SPLIT a deletion-side value on a group new to the view means
    contributions cancelled inside the delta: the group is inserted with
    its MIN/MAX values recomputed, not taken from the delta."""
    change = row((3, 2), 1, 2, 1, 1, 1, 1) + (3, 1, 3, 1)
    expected = check(STORED, [change], MinMaxPolicy.SPLIT)
    (slot, recomputed), = expected["recompute"].values()
    assert slot is None and recomputed[:ARITY] == (3, 2)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("changes,message", [
    ([row((3, 2), -1, 0, 0, None, None, 0)], "new group"),
    ([row((3, 2), None, 0, 0, None, None, 0)], "new group"),
    ([row((1, 1), -4, -6, -3, 2, 4, -3)], "COUNT"),
    ([row((1, 1), None, 0, 0, None, None, 0)], "COUNT\\(\\*\\) would become None"),
    # The first inconsistent tuple in delta order is the one reported.
    ([row((1, 1), -4, -6, -3, 2, 4, -3), row((3, 2), -1, 0, 0, None, None, 0)],
     "COUNT"),
    ([row((3, 2), -1, 0, 0, None, None, 0), row((1, 1), -4, -6, -3, 2, 4, -3)],
     "new group"),
])
def test_inconsistent_deltas_raise(policy, changes, message):
    if policy is MinMaxPolicy.SPLIT:
        changes = [change + (None,) * 4 for change in changes]
    view, delta = prepared(STORED, changes, policy)
    with pytest.raises(InconsistentDeltaError, match=message):
        refresh(view.begin_version(), delta, fake_recompute(STORED, []))
    check(STORED, changes, policy)


def refreshed(stored, changes, policy, recompute):
    """The rows of a view holding *stored* after *changes* are refreshed
    in, and the refresh's stats."""
    view, delta = prepared(stored, changes, policy)
    shadow = view.begin_version()
    stats = refresh(shadow, delta, recompute)
    return shadow.table.sorted_rows(), stats


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_new_group_whose_count_e_nets_to_zero_has_null_extrema(policy):
    """The delta's extremum of a column with no value left is stale: the
    new group's MIN/MAX is NULL, as recomputation gives."""
    change = delta_row(policy, (3, 2), 1, None, 0, 5, 6, 0)
    rows, stats = refreshed(STORED, [change], policy, None)
    assert row((3, 2), 1, None, 0, None, None, 0) in rows
    assert (stats.inserted, stats.recomputed) == (1, 0)


def test_split_deletion_side_only_on_an_empty_column_inserts():
    """Under SPLIT, deletion-side values on a new group's column whose
    COUNT(e) nets to 0 cancel inside the delta and leave nothing to
    recompute: the group is inserted, with NULL extrema."""
    change = row((3, 2), 1, 2, 1, None, None, 0) + (None, 4, None, 4)
    rows, stats = refreshed(STORED, [change], MinMaxPolicy.SPLIT, None)
    assert row((3, 2), 1, 2, 1, None, None, 0) in rows
    assert (stats.inserted, stats.recomputed) == (1, 0)


# The from-scratch oracle: each group's base rows as (qty, price) pairs,
# either measure possibly NULL.
measure = st.one_of(st.none(), st.integers(0, 5))
base_rows = st.lists(st.tuples(measure, measure), max_size=4)


def aggregate(key, rows):
    """The view's stored row of group *key* from its base *rows*."""
    qty = [q for q, _ in rows if q is not None]
    price = [p for _, p in rows if p is not None]
    return row(key, len(rows), sum(qty) if qty else None, len(qty),
               min(price, default=None), max(price, default=None), len(price))


def change_delta(policy, key, inserted, deleted):
    """The summary-delta tuple of inserting and deleting base rows of
    group *key*: counts and sums net, MIN/MAX over every changed value,
    and under SPLIT each side's extremum."""
    def values(rows, at):
        return [r[at] for r in rows if r[at] is not None]

    qty_in, qty_out = values(inserted, 0), values(deleted, 0)
    price_in, price_out = values(inserted, 1), values(deleted, 1)
    both = price_in + price_out
    tuple_ = row(
        key, len(inserted) - len(deleted),
        sum(qty_in) - sum(qty_out) if qty_in or qty_out else None,
        len(qty_in) - len(qty_out),
        min(both, default=None), max(both, default=None),
        len(price_in) - len(price_out),
    )
    if policy is MinMaxPolicy.SPLIT:
        tuple_ += (min(price_in, default=None), min(price_out, default=None),
                   max(price_in, default=None), max(price_out, default=None))
    return tuple_


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_refresh_equals_recomputation_from_base_rows(policy, data):
    """Base rows per group, some deleted and some inserted: the refreshed
    view is the view aggregated from the changed base rows, and kernel and
    reference agree on the way there."""
    before, after, changes = {}, {}, []
    for key in data.draw(st.lists(st.sampled_from(KEYS), unique=True)):
        rows = data.draw(base_rows)
        kept = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                  max_size=len(rows)))
        inserted = data.draw(base_rows)
        deleted = [r for r, keep in zip(rows, kept) if not keep]
        before[key] = rows
        after[key] = [r for r, keep in zip(rows, kept) if keep] + inserted
        if inserted or deleted:
            changes.append(change_delta(policy, key, inserted, deleted))
    stored = [aggregate(key, rows) for key, rows in before.items() if rows]

    def recompute(keys):
        extrema = [STORAGE.index("low"), STORAGE.index("high")]
        return {key: tuple(aggregate(key, after[key])[at] for at in extrema)
                for key in keys}

    rows, _stats = refreshed(stored, changes, policy, recompute)
    assert rows == sorted(
        aggregate(key, rows) for key, rows in after.items() if rows
    )
    check(stored, changes, policy)

"""Refresh optimisations: the assume-all-new fast path."""

import pytest

from repro.core import compute_summary_delta, refresh
from repro.errors import InconsistentDeltaError, MaintenanceError, TableError
from repro.views import MaterializedView, compute_rows
from repro.warehouse import ChangeSet, Warehouse

from ..conftest import assert_view_matches_recomputation, sid_definition


class TestAssumeAllNew:
    def test_new_date_insertions(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 99, 3, 1.0))   # date 99 is brand new
        changes.insert((2, 11, 99, 1, 2.0))
        delta = compute_summary_delta(view.definition, changes)
        changes.apply_to(pos.table)
        stats = refresh(view, delta, assume_all_new=True)
        assert stats.inserted == 2 and stats.updated == 0
        assert_view_matches_recomputation(view)

    def test_equivalent_to_normal_refresh(self, pos, stores, items):
        from ..conftest import make_pos

        changes_rows = [(1, 10, 77, 3, 1.0), (3, 13, 88, 5, 1.3)]

        fast_pos = make_pos(stores, items)
        fast_view = MaterializedView.build(sid_definition(fast_pos))
        changes = ChangeSet("pos", fast_pos.table.schema)
        changes.insert_many(changes_rows)
        delta = compute_summary_delta(fast_view.definition, changes)
        changes.apply_to(fast_pos.table)
        refresh(fast_view, delta, assume_all_new=True)

        slow_pos = make_pos(stores, items)
        slow_view = MaterializedView.build(sid_definition(slow_pos))
        changes = ChangeSet("pos", slow_pos.table.schema)
        changes.insert_many(changes_rows)
        delta = compute_summary_delta(slow_view.definition, changes)
        changes.apply_to(slow_pos.table)
        refresh(slow_view, delta)

        assert fast_view.table.sorted_rows() == slow_view.table.sorted_rows()

    def test_deletions_rejected(self, pos):
        view = MaterializedView.build(sid_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.delete((2, 12, 3, 5, 1.6))
        delta = compute_summary_delta(view.definition, changes)
        with pytest.raises(InconsistentDeltaError):
            refresh(view, delta, assume_all_new=True)

    def test_misuse_is_refused_before_any_write(self, pos, warehouse):
        # Violating the assumption (an existing group) is refused by the
        # view's unique group-key index before anything is written.
        view = warehouse.define_summary_table(sid_definition(pos))
        changes = ChangeSet("pos", pos.table.schema)
        changes.insert((1, 10, 99, 3, 1.0))  # a new group …
        changes.insert((1, 10, 1, 7, 1.0))  # … and (1,10,1), which exists
        delta = compute_summary_delta(view.definition, changes)
        before = stored_state(view)
        with pytest.raises(TableError, match="unique index"):
            refresh(view, delta, assume_all_new=True)
        assert stored_state(view) == before
        assert warehouse.verify_views() == {"SID_sales": True}
        # The same delta through the normal path is fine.
        changes.apply_to(pos.table)
        refresh(view, delta)
        assert warehouse.verify_views() == {"SID_sales": True}

    def test_duplicate_group_row_is_refused_before_any_write(self, pos, warehouse):
        # The same refusal through the table's single-row mutators.
        view = warehouse.define_summary_table(sid_definition(pos))
        table = view.table
        table.delete_slot(0)          # a free slot the insert could take
        before = stored_state(view)
        with pytest.raises(TableError, match="unique index"):
            table.insert(table.row_at(1))
        with pytest.raises(TableError, match="unique index"):
            table.update_slot(2, table.row_at(1))
        assert stored_state(view) == before
        assert len(table) == len(table.rows())
        assert table.verify_indexes()


def stored_state(view):
    """Everything a refresh may write: rows by slot, free slots, index
    entries, tracked domains, the certificate and the version stamp."""
    table = view.table
    return (
        table._rows,                                            # noqa: SLF001
        sorted(table._free_slots),                              # noqa: SLF001
        {columns: {key: list(index.slots_of(key)) for key in index.keys()}
         for columns, index in table.indexes.items()},
        [table.domain(column) for column in table.schema.columns],
        view.certificate.value if view.certificate is not None else None,
        view.pin().stamp(),
        view.freshness.refresh_count,
    )


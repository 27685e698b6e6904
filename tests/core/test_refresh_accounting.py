"""Access accounting of Figure 7: the batch "summary-delta join" applied
to a shadow copy of the view by ``refresh`` and the one ``apply_refresh``
publishes charge the same units per operation and leave the same rows and
certificate."""

import pytest

from repro.core import (
    apply_refresh,
    base_recompute_fn,
    compute_summary_delta,
    refresh,
)
from repro.relational.stats import ACCESS_FIELDS, measuring
from repro.views import MaterializedView
from repro.warehouse import ChangeSet

from ..conftest import (
    assert_view_matches_recomputation,
    make_items,
    make_pos,
    make_stores,
    minmax_definition,
    sic_definition,
    sid_definition,
)

INSERTS = [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)]
DELETES = [(2, 12, 3, 5, 1.6), (3, 10, 1, 6, 1.0)]


def refreshed(definition_factory, changes, apply):
    """Build the view over a fresh ``pos``, apply *changes* with *apply*;
    returns the view, the refreshed table's owner, what the apply charged,
    and the view's size before."""
    pos = make_pos(make_stores(), make_items())
    pos.table.track_domain("date")
    view = MaterializedView.build(definition_factory(pos))
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(pos.table)
    size_before = len(view.table)
    with measuring() as units:
        stats, target = apply(view, delta, base_recompute_fn(view.definition))
    charged = {name: getattr(units, name) for name in ACCESS_FIELDS}
    # Both certificates start counting at the shadow copy.
    charged["cert_digests"] = target.certificate.digests_computed
    return view, target, stats, charged, size_before


def on_shadow(view, delta, recompute):
    shadow = view.begin_version()
    return refresh(shadow, delta, recompute), shadow


def published(view, delta, recompute):
    return apply_refresh(view, delta, recompute), view


@pytest.mark.parametrize(
    "definition_factory", [sid_definition, sic_definition, minmax_definition]
)
def test_shadow_and_published_refresh_charge_the_same(definition_factory):
    changes = ChangeSet("pos", make_pos(make_stores(), make_items()).table.schema)
    changes.insert_many(INSERTS)
    changes.delete_many(DELETES)

    untouched, shadow, shadow_stats, on_copy, _size = refreshed(
        definition_factory, changes, on_shadow
    )
    view, _view, batch_stats, batch, _size = refreshed(
        definition_factory, changes, published
    )

    assert batch == on_copy
    assert batch_stats == shadow_stats
    assert view.table.sorted_rows() == shadow.table.sorted_rows()
    assert view.certificate.value == shadow.certificate.value
    assert_view_matches_recomputation(view)

    # Only the publish is visible: it pinned the batches to epoch 1, and
    # the unpublished shadow left its view at epoch 0 with no manifest.
    (manifest,) = view.lineage.manifests_since(0)
    assert (manifest.epoch, manifest.batches) == (1, tuple(sorted(
        batch_id for batch_id in changes.lineage
    )))
    assert (untouched.epoch, len(untouched.lineage)) == (0, 0)


def test_units_per_operation_are_pinned():
    """SID_sales, two insertions and two deletions: four delta tuples, one
    new group, one updated, two emptied."""
    changes = ChangeSet("pos", make_pos(make_stores(), make_items()).table.schema)
    changes.insert_many(INSERTS)
    changes.delete_many(DELETES)
    for apply in (on_shadow, published):
        _view, _target, stats, charged, size_before = refreshed(
            sid_definition, changes, apply
        )
        assert (stats.delta_rows, stats.inserted, stats.updated,
                stats.deleted, stats.recomputed) == (4, 1, 1, 2, 0)
        assert charged == {
            "rows_scanned": 4 + size_before,    # the copy, then the delta
            "index_lookups": 4,                 # one probe per tuple
            "rows_inserted": 1 + size_before,
            "rows_updated": 1,
            "rows_deleted": 2,
            # A written row is hashed once; the row an update replaces and
            # a deleted row are read from the digest column.
            "cert_digests": 1 + 1 + 0,
        }


def test_a_refresh_hashes_each_written_row_at_most_twice(monkeypatch):
    """SID_sales as above: the new group's row and the updated group's
    new row are hashed once when written and once when publish checks
    them; the updated group's old row and the emptied groups' rows are
    read from the digest column, never hashed (the digest input of a row
    is its cells' canonical parts, joined)."""
    import hashlib

    from repro.obs import audit

    pos = make_pos(make_stores(), make_items())
    view = MaterializedView.build(sid_definition(pos))
    changes = ChangeSet("pos", pos.table.schema)
    changes.insert_many(INSERTS)
    changes.delete_many(DELETES)
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(pos.table)
    before = set(view.table.rows())

    hashed = []

    class Recording:
        @staticmethod
        def blake2b(data=b"", **kwargs):
            hashed.append(data)
            return hashlib.blake2b(data, **kwargs)

    monkeypatch.setattr(audit, "hashlib", Recording)
    apply_refresh(view, delta)
    monkeypatch.undo()

    def times(row):
        return hashed.count(b"".join(map(audit._cell_part, row)))  # noqa: SLF001

    after = set(view.table.rows())
    written, gone = after - before, before - after
    assert len(written) == 2 and len(gone) == 3   # new and updated; old, emptied
    assert [times(row) for row in written] == [2, 2]
    assert [times(row) for row in gone] == [0, 0, 0]
    # The rest: rows compaction moved into the emptied slots, checked there
    # by publish once each.
    moved = [row for row in after & before if times(row)]
    assert [times(row) for row in moved] == [1] * len(moved)
    assert len(hashed) == 4 + len(moved) and len(moved) <= 2

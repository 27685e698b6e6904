"""Access accounting of Figure 7: the per-tuple cursor applied in place and
the batch "summary-delta join" applied to a versioned shadow charge the
same units per operation and leave the same rows, certificate and
manifest."""

import pytest

from repro.core import (
    RefreshVariant,
    base_recompute_fn,
    compute_summary_delta,
    refresh,
    refresh_versioned,
)
from repro.core.refresh import refresh_index_enabled
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

# With REPRO_REFRESH_INDEX=0 groups are located by scanning the table as it
# stands, which the cursor has already changed and the batch form has not.
pytestmark = pytest.mark.skipif(
    not refresh_index_enabled(), reason="units are pinned for the indexed probe"
)

INSERTS = [(1, 10, 1, 7, 1.0), (4, 13, 9, 2, 1.3)]
DELETES = [(2, 12, 3, 5, 1.6), (3, 10, 1, 6, 1.0)]


def refreshed(definition_factory, changes, apply):
    """Build the view over a fresh ``pos``, apply *changes* with *apply*;
    returns the view, what the apply charged, and the view's size before."""
    pos = make_pos(make_stores(), make_items())
    pos.table.track_domain("date")
    view = MaterializedView.build(definition_factory(pos))
    delta = compute_summary_delta(view.definition, changes)
    changes.apply_to(pos.table)
    size_before = len(view.table)
    certificate, digests_before = view.certificate, view.certificate.digests_computed
    with measuring() as units:
        stats = apply(view, delta, base_recompute_fn(view.definition))
    charged = {name: getattr(units, name) for name in ACCESS_FIELDS}
    # A versioned refresh publishes the shadow's own certificate, which
    # starts counting at the copy; an in-place one keeps counting.
    charged["cert_digests"] = view.certificate.digests_computed - (
        digests_before if view.certificate is certificate else 0
    )
    return view, stats, charged, size_before


def cursor_in_place(view, delta, recompute):
    return refresh(view, delta, recompute, variant=RefreshVariant.CURSOR)


@pytest.mark.parametrize(
    "definition_factory", [sid_definition, sic_definition, minmax_definition]
)
def test_cursor_and_versioned_batch_charge_the_same(definition_factory):
    changes = ChangeSet("pos", make_pos(make_stores(), make_items()).table.schema)
    changes.insert_many(INSERTS)
    changes.delete_many(DELETES)

    in_place, cursor_stats, cursor, _size = refreshed(
        definition_factory, changes, cursor_in_place
    )
    versioned, batch_stats, batch, size_before = refreshed(
        definition_factory, changes, refresh_versioned
    )

    # The shadow copy is the only difference: one scan of the published
    # table and one insert per row of it.
    batch["rows_scanned"] -= size_before
    batch["rows_inserted"] -= size_before
    assert batch == cursor
    assert batch_stats == cursor_stats

    assert versioned.table.sorted_rows() == in_place.table.sorted_rows()
    assert versioned.certificate.value == in_place.certificate.value
    assert_view_matches_recomputation(versioned)
    (ours,) = versioned.lineage.manifests_since(0)
    (theirs,) = in_place.lineage.manifests_since(0)
    assert ours.batches == theirs.batches == tuple(sorted(
        batch_id for batch_id in changes.lineage
    ))
    assert (ours.mode, theirs.mode) == ("versioned", "inplace")


def test_units_per_operation_are_pinned():
    """SID_sales, two insertions and two deletions: four delta tuples, one
    new group, one updated, two emptied."""
    changes = ChangeSet("pos", make_pos(make_stores(), make_items()).table.schema)
    changes.insert_many(INSERTS)
    changes.delete_many(DELETES)
    for apply, copied in ((cursor_in_place, 0), (refresh_versioned, 1)):
        _view, stats, charged, size_before = refreshed(
            sid_definition, changes, apply
        )
        assert (stats.delta_rows, stats.inserted, stats.updated,
                stats.deleted, stats.recomputed) == (4, 1, 1, 2, 0)
        assert charged == {
            "rows_scanned": 4 + copied * size_before,    # the delta, once
            "index_lookups": 4,                          # one probe per tuple
            "rows_inserted": 1 + copied * size_before,
            "rows_updated": 1,
            "rows_deleted": 2,
            "cert_digests": 1 + 2 * 1 + 2,   # an update digests old and new
        }

"""Rematerialisation publishes an epoch: the fresh table is built off to
the side and installed by the swap ``publish`` uses, so a server's cached
answers stop matching and a pinned reader keeps the rows it pinned.
(Both used to truncate and refill the published table in place without
moving the epoch.)"""

import pytest

from repro.aggregates import Sum
from repro.errors import DefinitionError, PublishError
from repro.lattice import rematerialize_with_lattice
from repro.obs.audit import rows_certificate
from repro.query import AggregateQuery
from repro.relational import Table, col
from repro.serve import QueryServer

from ..conftest import assert_view_matches_recomputation


def total_units(server, pos):
    answer = server.answer(AggregateQuery.create(
        pos, [], [("units", Sum(col("qty")))]))
    ((units,),) = answer.rows()
    return units


@pytest.mark.parametrize("how", ["view", "lattice"])
def test_server_answers_from_the_rematerialised_rows(retail, how):
    data, warehouse = retail
    pos = data.pos
    truth = sum(pos.table.column_values("qty"))
    with QueryServer(warehouse) as server:
        assert total_units(server, pos) == truth
        pos.table.insert((1, 1, 1, 1000, 1.0))
        assert total_units(server, pos) == truth     # views not yet rebuilt
        if how == "view":
            for view in warehouse.views_over("pos"):
                view.rematerialize()
        else:
            rematerialize_with_lattice(warehouse.views_over("pos"))
        assert total_units(server, pos) == truth + 1000
    assert set(warehouse.verify_views().values()) == {True}
    assert set(warehouse.verify_certificates().values()) == {True}


@pytest.mark.parametrize("how", ["view", "lattice"])
def test_a_pinned_version_keeps_its_rows(retail, how):
    data, warehouse = retail
    views = warehouse.views_over("pos")
    pinned = {view.name: view.pin() for view in views}
    before = {view.name: sorted(view.table.rows()) for view in views}
    data.pos.table.insert((1, 1, 1, 1000, 1.0))
    if how == "view":
        for view in views:
            view.rematerialize()
    else:
        rematerialize_with_lattice(views)
    for view in views:
        old = pinned[view.name]
        assert sorted(old.table.rows()) == before[view.name]
        assert old.certificate.value == rows_certificate(old.table.rows())
        assert view.epoch == old.epoch + 1
        assert view.table is not old.table
        assert sorted(view.table.rows()) != before[view.name]
        assert view.certificate.value == rows_certificate(view.table.rows())
        assert view.table.verify_indexes()
        assert view.group_key_index() is not None
        assert_view_matches_recomputation(view)
        assert view.epoch_stats().retained == 1      # ``pinned`` holds it


def test_a_shadow_begun_before_is_refused(retail):
    _data, warehouse = retail
    view = warehouse.view("sR_sales")
    shadow = view.begin_version()
    view.rematerialize()
    with pytest.raises(PublishError, match="stale shadow"):
        view.publish(shadow)


def test_install_checks_the_schema(retail):
    _data, warehouse = retail
    view = warehouse.view("sR_sales")
    with pytest.raises(DefinitionError, match="schema"):
        view.install(Table("wrong", ["region"]))
    assert view.epoch == 0

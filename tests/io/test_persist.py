"""Warehouse persistence round-trips."""

import json

import pytest

from repro.aggregates import Avg, Count, CountStar, Max, Min, Sum
from repro.io import (
    PersistenceError,
    aggregate_from_json,
    aggregate_to_json,
    expression_from_json,
    expression_to_json,
    load_warehouse,
    save_warehouse,
)
from repro.relational import Case, col, lit
from repro.relational.expressions import And, IsNull, Not, Or

from ..conftest import sic_definition, sid_definition


class TestExpressionRoundTrip:
    @pytest.mark.parametrize(
        "expression",
        [
            col("qty"),
            lit(42),
            lit(None),
            lit("o'hara"),
            -col("qty"),
            col("a") + col("b") * lit(2) - lit(1),
            col("a").ge(lit(5)),
            And(col("a").gt(lit(0)), Or(col("b").lt(lit(1)), Not(col("c").eq(lit(2))))),
            IsNull(col("x")),
            Case([(col("x").is_null(), lit(0))], lit(1)),
        ],
    )
    def test_round_trip_preserves_structure(self, expression):
        rebuilt = expression_from_json(expression_to_json(expression))
        assert rebuilt == expression

    def test_json_is_json_serialisable(self):
        payload = expression_to_json(col("a") * lit(3))
        json.dumps(payload)

    def test_unknown_op_rejected(self):
        with pytest.raises(PersistenceError):
            expression_from_json({"op": "mystery"})


class TestAggregateRoundTrip:
    @pytest.mark.parametrize(
        "function",
        [CountStar(), Count(col("x")), Sum(col("a") * col("b")),
         Min(col("d")), Max(col("d")), Avg(col("q"))],
    )
    def test_round_trip(self, function):
        assert aggregate_from_json(aggregate_to_json(function)) == function

    def test_unknown_kind_rejected(self):
        with pytest.raises(PersistenceError):
            aggregate_from_json({"kind": "median"})


class TestWarehouseRoundTrip:
    def test_full_round_trip(self, warehouse, pos, tmp_path):
        warehouse.define_summary_table(sid_definition(pos))
        warehouse.define_summary_table(sic_definition(pos))
        save_warehouse(warehouse, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh", verify=True)

        assert set(loaded.views) == set(warehouse.views)
        for name in warehouse.views:
            assert (
                loaded.view(name).table.sorted_rows()
                == warehouse.view(name).table.sorted_rows()
            )
        assert loaded.facts["pos"].table.sorted_rows() == pos.table.sorted_rows()
        assert loaded.dimensions["stores"].hierarchy.levels == (
            "storeID", "city", "region",
        )

    def test_loaded_warehouse_is_maintainable(self, warehouse, pos, tmp_path):
        from repro.core import maintain_view

        warehouse.define_summary_table(sid_definition(pos))
        save_warehouse(warehouse, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh")

        changes = loaded.pending_changes("pos")
        changes.insert((1, 10, 9, 4, 1.0))
        changes.delete((2, 12, 3, 5, 1.6))
        maintain_view(loaded.view("SID_sales"), changes)
        loaded.assert_views_consistent()

    def test_maintained_state_round_trips(self, warehouse, pos, tmp_path):
        from repro.core import maintain_view

        view = warehouse.define_summary_table(sid_definition(pos))
        changes = warehouse.pending_changes("pos")
        changes.insert((4, 13, 9, 2, 1.3))
        maintain_view(view, changes)

        save_warehouse(warehouse, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh", verify=True)
        assert loaded.view("SID_sales").table.sorted_rows() == view.table.sorted_rows()

    def test_fact_indexes_restored(self, warehouse, pos, tmp_path):
        save_warehouse(warehouse, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh")
        assert loaded.facts["pos"].table.index_on(
            ["storeID", "itemID", "date"]
        ) is not None

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="manifest"):
            load_warehouse(tmp_path)

    def test_version_mismatch_rejected(self, warehouse, tmp_path):
        save_warehouse(warehouse, tmp_path / "wh")
        manifest = json.loads((tmp_path / "wh" / "manifest.json").read_text())
        manifest["format_version"] = 999
        (tmp_path / "wh" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="format"):
            load_warehouse(tmp_path / "wh")

    def test_verify_detects_corruption(self, warehouse, pos, tmp_path):
        from repro.errors import MaintenanceError
        from repro.warehouse.health import inject_corruption

        warehouse.define_summary_table(sid_definition(pos))
        # A wrong view saved consistently: the files match their manifest,
        # so only recomputation can tell.
        inject_corruption(warehouse, "drop", view_name="SID_sales")
        save_warehouse(warehouse, tmp_path / "wh")
        with pytest.raises(MaintenanceError):
            load_warehouse(tmp_path / "wh", verify=True)

    def test_nulls_round_trip(self, stores, items, tmp_path):
        from repro.warehouse import Warehouse

        from ..conftest import make_pos

        pos = make_pos(stores, items, rows=[(1, 10, 1, None, 1.0)])
        warehouse = Warehouse()
        warehouse.add_fact(pos)
        warehouse.define_summary_table(sid_definition(pos))
        save_warehouse(warehouse, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh", verify=True)
        (row,) = loaded.view("SID_sales").table.rows()
        assert row[4] is None  # SUM over the single null qty


TABLE_FILES = ["stores.jsonl", "pos.jsonl", "view_SID_sales.jsonl"]


def retail_warehouse():
    from repro.workload import (
        RetailConfig,
        build_retail_warehouse,
        generate_retail,
    )

    data = generate_retail(RetailConfig(pos_rows=2_000, seed=7))
    return data, build_retail_warehouse(data)


def table_contents(warehouse) -> dict:
    tables = {f"dim:{name}": d.table for name, d in warehouse.dimensions.items()}
    tables.update({f"fact:{name}": f.table for name, f in warehouse.facts.items()})
    tables.update({f"view:{name}": v.table for name, v in warehouse.views.items()})
    return {name: table.sorted_rows() for name, table in tables.items()}


class TestDamagedSaves:
    @pytest.fixture
    def saved(self, tmp_path):
        _, warehouse = retail_warehouse()
        save_warehouse(warehouse, tmp_path / "wh")
        return tmp_path / "wh"

    @pytest.mark.parametrize("filename", TABLE_FILES)
    def test_cut_at_a_line_boundary_is_rejected(self, saved, filename):
        path = saved / filename
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) > 2
        path.write_text("".join(lines[: len(lines) // 2]))
        with pytest.raises(PersistenceError, match="rows"):
            load_warehouse(saved)

    @pytest.mark.parametrize("filename", TABLE_FILES)
    def test_cut_mid_line_is_rejected(self, saved, filename):
        path = saved / filename
        text = path.read_text()
        middle = len(text) // 2
        while text[middle - 1] == "\n":
            middle += 1
        path.write_text(text[:middle])
        with pytest.raises(PersistenceError, match="not a JSON row"):
            load_warehouse(saved)

    def test_missing_table_file_is_rejected(self, saved):
        (saved / "pos.jsonl").unlink()
        with pytest.raises(PersistenceError, match="cannot read"):
            load_warehouse(saved)

    def test_manifest_records_row_counts(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        stored = (saved / "pos.jsonl").read_text().splitlines()
        assert manifest["files"]["pos.jsonl"]["rows"] == len(stored) == 2_000


class TestInterruptedResave:
    # stores, items, pos, four views, then the manifest.
    WRITES = 8

    @pytest.mark.parametrize("k", range(WRITES))
    def test_failed_kth_write_never_loads_a_different_warehouse(
        self, k, tmp_path, monkeypatch
    ):
        from repro.io import persist
        from repro.warehouse.nightly import run_nightly_maintenance
        from repro.workload import update_generating_changes

        data, warehouse = retail_warehouse()
        target = tmp_path / "wh"
        save_warehouse(warehouse, target)
        previous = table_contents(load_warehouse(target))

        warehouse.stage_changes("pos", update_generating_changes(
            data.pos, data.config, 200, data.rng
        ))
        run_nightly_maintenance(warehouse)
        assert table_contents(warehouse) != previous

        writes = []
        real_write = persist.atomic_write_text

        def failing_write(path, text):
            writes.append(path)
            if len(writes) == k + 1:
                raise OSError("disk full")
            return real_write(path, text)

        monkeypatch.setattr(persist, "atomic_write_text", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_warehouse(warehouse, target)
        monkeypatch.undo()

        try:
            loaded = load_warehouse(target)
        except PersistenceError:
            return
        assert table_contents(loaded) == previous

    def test_write_count_matches_the_warehouse(self, tmp_path, monkeypatch):
        from repro.io import persist

        _, warehouse = retail_warehouse()
        writes = []
        real_write = persist.atomic_write_text

        def counting_write(path, text):
            writes.append(path.name)
            return real_write(path, text)

        monkeypatch.setattr(persist, "atomic_write_text", counting_write)
        save_warehouse(warehouse, tmp_path / "wh")
        assert len(writes) == self.WRITES
        assert writes[-1] == "manifest.json"

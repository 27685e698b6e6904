"""The persistent run ledger: atomic appends, history, per-run recording."""

import json
import threading

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    active_ledger,
    set_ledger,
    suspended_ledger,
)


@pytest.fixture(autouse=True)
def no_installed_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def run_record(kind="maintain_lattice", propagate_s=0.010, refresh_s=0.020,
               access_total=5_000):
    return {
        "kind": kind,
        "engine": {"policy": "paper", "use_lattice": True},
        "phases": [
            {"name": "propagate:SID", "seconds": propagate_s, "offline": False},
            {"name": "refresh:SID", "seconds": refresh_s, "offline": True},
        ],
        "online_s": propagate_s,
        "offline_s": refresh_s,
        "access": {"rows_scanned": access_total, "total": access_total},
        "views": {"SID": {"delta_rows": 10}},
        "changes": {"insertions": 50, "deletions": 50},
    }


class TestAppend:
    def test_records_round_trip_with_ids(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = ledger.append(run_record())
        second = ledger.append(run_record(kind="nightly"))
        assert first["run_id"] == 1 and second["run_id"] == 2
        assert first["schema_version"] == LEDGER_SCHEMA_VERSION
        assert first["ts"] > 0
        records = ledger.records()
        assert [r["run_id"] for r in records] == [1, 2]
        assert records[1]["kind"] == "nightly"
        assert len(ledger.records()) == 2

    def test_concurrent_appends_land_byte_intact(self, tmp_path):
        """Acceptance: threads hammering append() must leave every line
        valid JSON, no interleaving, no lost records, gapless run_ids."""
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        threads_n, appends_each = 8, 10
        errors = []

        def hammer(worker):
            try:
                for i in range(appends_each):
                    # Ledgers in other threads/processes would be distinct
                    # objects: simulate that by appending through a fresh
                    # RunLedger each time, so only the file lock protects.
                    RunLedger(path).append(run_record(
                        kind=f"w{worker}-{i}"
                    ))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        lines = path.read_text().splitlines()
        assert len(lines) == threads_n * appends_each
        parsed = [json.loads(line) for line in lines]  # every line intact
        assert sorted(r["run_id"] for r in parsed) == list(
            range(1, threads_n * appends_each + 1)
        )
        kinds = {r["kind"] for r in parsed}
        assert len(kinds) == threads_n * appends_each  # none lost

    def test_malformed_mid_file_line_fails_loudly(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(run_record())
        with path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.warns(UserWarning):  # append self-heals trailing junk...
            ledger.append(run_record())
        # ...so plant the malformed line mid-file by hand:
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            ledger.records()

    def test_truncated_trailing_line_warns_and_is_dropped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(run_record())
        with path.open("a") as handle:
            handle.write('{"kind": "maintain_latt')  # crash mid-append
        with pytest.warns(UserWarning, match="truncated trailing"):
            records = ledger.records()
        assert len(records) == 1

    def test_append_heals_truncated_trailing_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(run_record())
        with path.open("a") as handle:
            handle.write('{"kind": "night')  # crash mid-append
        with pytest.warns(UserWarning, match="truncated trailing"):
            stamped = ledger.append(run_record())
        # The half-written line is gone and run_ids stay gapless.
        assert stamped["run_id"] == 2
        assert [r["run_id"] for r in ledger.records()] == [1, 2]

    def test_non_object_trailing_line_warns(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.warns(UserWarning, match="truncated trailing"):
            assert RunLedger(path).records() == []


class TestActiveLedger:
    def test_off_by_default(self):
        assert active_ledger() is None

    def test_env_var_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "runs.jsonl"))
        ledger = active_ledger()
        assert ledger is not None
        assert ledger.path == tmp_path / "runs.jsonl"

    def test_installed_ledger_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        mine = RunLedger(tmp_path / "mine.jsonl")
        set_ledger(mine)
        assert active_ledger() is mine

    def test_suspension_hides_both_sources(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        set_ledger(RunLedger(tmp_path / "mine.jsonl"))
        with suspended_ledger():
            assert active_ledger() is None
            with suspended_ledger():  # nests
                assert active_ledger() is None
            assert active_ledger() is None
        assert active_ledger() is not None


class TestDriverRecording:
    """maintain_lattice / run_nightly_maintenance append real records."""

    def retail(self, pos_rows=800, change_rows=80, seed=41):
        from repro.views import MaterializedView
        from repro.workload import (
            RetailConfig,
            build_retail_warehouse,
            generate_retail,
            retail_view_definitions,
            update_generating_changes,
        )

        data = generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed))
        views = [
            MaterializedView.build(definition)
            for definition in retail_view_definitions(data.pos)
        ]
        changes = update_generating_changes(
            data.pos, data.config, change_rows, data.rng
        )
        warehouse = build_retail_warehouse(
            generate_retail(RetailConfig(pos_rows=pos_rows, seed=seed + 1))
        )
        return views, changes, warehouse

    def test_maintain_lattice_appends_one_record(self, tmp_path):
        from repro.lattice import maintain_lattice

        views, changes, _warehouse = self.retail()
        ledger = RunLedger(tmp_path / "runs.jsonl")
        set_ledger(ledger)
        maintain_lattice(views, changes)
        (record,) = ledger.records()
        assert record["kind"] == "maintain_lattice"
        assert record["engine"]["use_lattice"] is True
        assert record["engine"]["policy"] == "paper"
        assert record["access"]["total"] > 0
        assert set(record["views"]) == {view.name for view in views}
        assert record["changes"]["insertions"] > 0
        assert record["predictions"] is not None
        assert set(record["predictions"]) >= set(record["views"])
        assert (
            record["predicted_with_lattice"]
            < record["predicted_without_lattice"]
        )
        names = [p["name"] for p in record["phases"]]
        assert any(name.startswith("propagate:") for name in names)
        assert any(name.startswith("refresh:") for name in names)

    def test_without_lattice_record_has_no_predictions(self, tmp_path):
        from repro.lattice import maintain_lattice

        views, changes, _warehouse = self.retail(seed=43)
        ledger = RunLedger(tmp_path / "runs.jsonl")
        set_ledger(ledger)
        maintain_lattice(views, changes, use_lattice=False)
        (record,) = ledger.records()
        assert record["engine"]["use_lattice"] is False
        assert record["predictions"] is None

    def test_no_ledger_appends_nothing(self, tmp_path):
        from repro.lattice import maintain_lattice

        views, changes, _warehouse = self.retail(seed=47)
        maintain_lattice(views, changes)
        assert not (tmp_path / "runs.jsonl").exists()

    def test_nightly_appends_exactly_one_record(self, tmp_path, monkeypatch):
        """The nightly roll-up suppresses the per-fact records — via the
        env var path, where naive set_ledger(None) suppression would leak."""
        from repro.warehouse.nightly import run_nightly_maintenance
        from repro.workload import (
            RetailConfig,
            generate_retail,
            update_generating_changes,
        )
        from repro.workload import build_retail_warehouse

        data = generate_retail(RetailConfig(pos_rows=800, seed=53))
        warehouse = build_retail_warehouse(data)
        staged = update_generating_changes(data.pos, data.config, 80, data.rng)
        warehouse.stage_insertions("pos", staged.insertions.scan())
        warehouse.stage_deletions("pos", staged.deletions.scan())

        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        run_nightly_maintenance(warehouse)
        ledger = RunLedger(path)
        (record,) = ledger.records()
        assert record["kind"] == "nightly"
        assert record["access"]["total"] > 0
        assert record["changes"]["insertions"] + record["changes"]["deletions"] > 0
        assert len(record["views"]) == 4


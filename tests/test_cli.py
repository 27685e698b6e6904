"""The command-line interface."""

import argparse
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import tracing


class TestParser:
    def test_subcommand_set_is_pinned(self):
        """Adding or removing a subcommand has to be deliberate."""
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert sorted(subparsers.choices) == sorted([
            "audit", "explain", "figure9", "history", "lattice", "lineage",
            "maintain", "serve-metrics", "status", "top", "trace",
        ])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure9_panel_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9", "z"])

    def test_defaults(self):
        args = build_parser().parse_args(["maintain"])
        assert args.pos_rows == 50_000
        assert args.workload == "update"


class TestCommands:
    def test_lattice_prints_figure8_plan(self, capsys):
        assert main(["lattice", "--pos-rows", "1000"]) == 0
        out = capsys.readouterr().out
        assert "SID_sales <- base data" in out
        assert "24 candidate views" in out

    def test_lattice_runs_on_the_standard_library_alone(self):
        """No third-party package is needed: with every site-packages
        directory gone from ``sys.path``, ``repro`` imports and a command
        that builds the lattices runs."""
        script = (
            "import sys\n"
            "sys.path = [p for p in sys.path\n"
            "            if 'site-packages' not in p and 'dist-packages' not in p]\n"
            "import repro.cli\n"
            "raise SystemExit(repro.cli.main(['lattice', '--pos-rows', '1000']))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "24 candidate views" in result.stdout

    def test_maintain_reports_stats(self, capsys):
        code = main([
            "maintain", "--pos-rows", "2000", "--changes", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Maintained 4 summary tables" in out
        assert "batch window" in out

    def test_maintain_insert_workload(self, capsys):
        code = main([
            "maintain", "--pos-rows", "1000", "--changes", "100",
            "--workload", "insert",
        ])
        assert code == 0
        assert "inserted" in capsys.readouterr().out

    def test_figure9_tiny_scale(self, capsys):
        code = main(["figure9", "a", "--scale", "0.002"])
        out = capsys.readouterr().out
        assert "Figure 9(a)" in out
        assert "Shape claims" in out
        # Exit code reflects claim verdicts; at absurdly tiny scale they may
        # legitimately flip, so only the report format is asserted.
        assert code in (0, 1)

    def test_trace_prints_span_tree_and_agrees_with_clock(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        code = main(["trace", "--pos-rows", "2000", "--changes", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nightly" in out
        assert "propagate" in out
        assert "refresh:SID_sales" in out
        assert "batch window from span tags" in out
        assert "DISAGREE" not in out
        assert "propagate.invocations" in out

    def test_trace_exports_jsonl(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        target = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--pos-rows", "1000", "--changes", "100",
            "--jsonl", str(target),
        ])
        assert code == 0
        records = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        assert records[0]["name"] == "trace"
        names = {record["name"] for record in records}
        assert "nightly" in names
        assert any(name.startswith("refresh:") for name in names)
        by_id = {record["id"]: record for record in records}
        for record in records[1:]:
            assert record["parent_id"] in by_id

    def test_trace_insert_workload_spans_every_node(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        code = main([
            "trace", "--pos-rows", "1000", "--changes", "100",
            "--workload", "insert",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("SID_sales", "SiC_sales", "sCD_sales", "sR_sales"):
            assert f"node:{name}" in out
            assert f"refresh:{name}" in out
        assert "DISAGREE" not in out

    def test_trace_twice_under_an_ambient_recorder(self, capsys, monkeypatch):
        """Regression: under the recorder ``REPRO_TRACE=1`` installs,
        ``trace`` summed the spans of every earlier run in the process
        against its own run's clock, and a second run disagreed."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.setattr(tracing, "_active", tracing.TraceRecorder())
        for _run in range(2):
            code = main(["trace", "--pos-rows", "1000", "--changes", "100"])
            out = capsys.readouterr().out
            assert code == 0
            assert "DISAGREE" not in out and "refresh:SID_sales" in out

    def test_trace_refuses_under_kill_switch(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        code = main(["trace", "--pos-rows", "1000", "--changes", "100"])
        assert code == 1
        assert "REPRO_TRACE=0" in capsys.readouterr().out


class TestExplain:
    def test_renders_the_plan(self, capsys):
        code = main(["explain", "--pos-rows", "2000", "--changes", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Maintenance plan" in out
        assert "SID_sales" in out
        assert "est.accesses" in out
        assert "propagate with lattice" in out
        assert "without lattice" in out
        assert "§2.2" in out

    def test_renders_the_plan_for_the_insert_workload(self, capsys):
        code = main([
            "explain", "--pos-rows", "1000", "--changes", "100",
            "--workload", "insert",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("SID_sales", "SiC_sales", "sCD_sales", "sR_sales"):
            assert name in out
        assert "propagate with lattice" in out

    def test_execute_prints_predicted_vs_actual(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        code = main([
            "explain", "--pos-rows", "2000", "--changes", "200", "--execute",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted vs actual" in out
        assert "error" in out and "ratio" in out
        assert "MIN/MAX recompute probes" in out

    def test_execute_refuses_under_kill_switch(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        code = main([
            "explain", "--pos-rows", "1000", "--changes", "100", "--execute",
        ])
        assert code == 2


class TestLedgerCommands:
    def seeded_ledger(self, tmp_path, monkeypatch, runs=3):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "runs.jsonl"))
        for _ in range(runs):
            assert main([
                "maintain", "--pos-rows", "1000", "--changes", "100",
            ]) == 0
        return tmp_path / "runs.jsonl"

    def test_history_lists_runs(self, tmp_path, capsys, monkeypatch):
        self.seeded_ledger(tmp_path, monkeypatch)
        assert main(["history"]) == 0
        out = capsys.readouterr().out
        assert "maintain_lattice" in out
        assert out.count("maintain_lattice") == 3

    def test_history_empty_ledger(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "runs.jsonl"))
        assert main(["history"]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_history_without_ledger_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["history"]) == 2

    def test_history_schema_error_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "runs.jsonl"
        # Mid-file corruption is unrecoverable; only a truncated *trailing*
        # line (crash mid-append) is tolerated.
        path.write_text('{broken\n{"kind": "nightly", "run_id": 1}\n')
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        assert main(["history"]) == 2

class TestMetricsCommand:
    """``trace --format json|prom`` prints the metrics registry."""

    def test_prom_format(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        code = main([
            "trace", "--format", "prom",
            "--pos-rows", "1000", "--changes", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_propagate_invocations counter" in out
        assert "repro_refresh_delta_rows" in out

    def test_json_format(self, capsys, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        code = main([
            "trace", "--format", "json",
            "--pos-rows", "1000", "--changes", "100",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["propagate.invocations"] >= 1

    def test_refuses_under_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert main(["trace", "--format", "json"]) == 1


class TestStatusCommand:
    ARGS = ["status", "--pos-rows", "400", "--changes", "40"]

    def test_prints_table_and_exits_0(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        for name in ("SID_sales", "sCD_sales", "SiC_sales", "sR_sales"):
            assert name in out
        assert "DRIFT" not in out

    def test_prom_output(self, capsys):
        assert main(self.ARGS + ["--prom"]) == 0
        out = capsys.readouterr().out
        assert 'repro_freshness_staleness_seconds{view="SID_sales"}' in out
        assert 'repro_integrity_certificate_ok{view="sR_sales"} 1' in out


class TestLineageCommand:
    ARGS = ["lineage", "--pos-rows", "400", "--changes", "40", "--rounds", "2"]

    @pytest.fixture(autouse=True)
    def fresh_clock(self):
        # Batch ids come from the process-wide clock; restart it so
        # ``--batch 1`` deterministically names this command's first batch.
        from repro.obs.lineage import LineageClock, set_lineage_clock

        previous = set_lineage_clock(LineageClock())
        yield
        set_lineage_clock(previous)

    def test_summary_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "lag_p50" in out and "pending" in out
        for name in ("SID_sales", "sCD_sales", "SiC_sales", "sR_sales"):
            assert name in out

    def test_batch_report_names_every_view(self, capsys):
        assert main(self.ARGS + ["--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("batch 1:")
        for name in ("SID_sales", "sCD_sales", "SiC_sales", "sR_sales"):
            assert name in out
        assert "epoch   1  refresh   1" in out

    def test_unknown_batch_exits_1(self, capsys):
        assert main(self.ARGS + ["--batch", "999999"]) == 1
        assert "unknown batch id" in capsys.readouterr().out

    def test_view_report(self, capsys):
        assert main(self.ARGS + ["--view", "SID_sales"]) == 0
        out = capsys.readouterr().out
        assert "view SID_sales:" in out
        # One manifest per round, each at the epoch its publish made.
        assert "epoch   1  batches [" in out and "epoch   2  batches [" in out
        assert "pending: " in out

    def test_unknown_view_exits_2(self, capsys):
        assert main(self.ARGS + ["--view", "ghost"]) == 2
        assert "no view named" in capsys.readouterr().err


class TestAuditCommand:
    ARGS = ["audit", "--pos-rows", "400", "--changes", "40"]

    def test_clean_full_audit_exits_0(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_clean_sample_audit_exits_0(self, capsys):
        assert main(self.ARGS + ["--sample", "5"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind", ["mutate", "drop", "phantom", "missed-delta"]
    )
    def test_injected_corruption_exits_1(self, kind, capsys):
        code = main(self.ARGS + ["--inject", kind, "--view", "SID_sales"])
        assert code == 1
        out = capsys.readouterr().out
        assert f"injected: {kind}" in out
        assert "verdict: FAIL (SID_sales)" in out

    def test_report_written(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "audit.json"
        assert main(self.ARGS + ["--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == "audit"
        assert report["passed"] is True
        assert set(report["views"]) == {
            "SID_sales", "sCD_sales", "SiC_sales", "sR_sales"
        }


class TestServingCommands:
    def test_serve_metrics_serves_queries_and_publishes_epochs(self, capsys):
        code = main([
            "serve-metrics", "--port", "0", "--duration", "0.5",
            "--pos-rows", "2000", "--changes", "100",
            "--maintenance-interval", "0.1",
        ])
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        served, published = last.split("; ")
        queries = int(served.split()[1].replace(",", ""))
        epochs = int(published.split()[0])
        assert queries >= 1 and epochs >= 1, last

    def test_top_renders_one_frame(self, capsys):
        from repro.serve import QueryServer
        from repro.workload import (
            RetailConfig,
            build_retail_warehouse,
            generate_retail,
        )

        data = generate_retail(RetailConfig(pos_rows=500, seed=3))
        warehouse = build_retail_warehouse(data)
        with QueryServer(warehouse, max_workers=1, expose_http=0) as server:
            code = main(["top", "--url", server.exporter.url, "--frames", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("queries ")
        assert "latency ms" in out

    def test_top_against_a_closed_port_exits_2(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(["top", "--url", f"http://127.0.0.1:{port}", "--frames", "1"])
        assert code == 2
        assert "cannot scrape" in capsys.readouterr().err

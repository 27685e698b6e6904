"""All four workloads at 1/50 scale, untraced and traced, end to end."""

import json
import os
import pathlib
import subprocess
import sys
import time

RUN = pathlib.Path(__file__).resolve().parents[1] / "run.py"
ROOT = RUN.parents[2]


def clean_environment():
    """The runner refuses REPRO_* switches; CI legs set some."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def test_smoke_run_prints_every_metric_of_the_contract(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--all", "--smoke", "--seconds", "0.3",
         "--json", str(tmp_path / "set.json"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=clean_environment(), timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20, f"smoke run took {elapsed:.1f}s"

    runs = json.loads((tmp_path / "set.json").read_text())["runs"]
    names = [w["name"] for w in contract["workloads"]]
    assert [(r["workload"], r["trace"]) for r in runs] == [
        (name, trace) for name in names for trace in (0, 1)
    ]
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        declared = per_layer if run["trace"] else end_to_end
        assert {n: m["unit"] for n, m in run["metrics"].items()} == declared
        for name, metric in run["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            if not run["trace"]:
                assert metric["value"] > 0, name
            # Printed by name with its unit, not only in the JSON line.
            assert f"  {name} " in done.stdout
    # The design the workloads were chosen for holds even at this scale.
    layers = {r["workload"]: r["metrics"] for r in runs if r["trace"]}
    groups = {w: m["core.recompute.groups"]["value"] for w, m in layers.items()}
    assert groups["fig9-update"] > 0 and groups["serve-mixed"] > 0
    assert groups["fig9-insert"] == 0 and groups["bulk-coarse"] == 0
    for metrics in layers.values():
        assert abs(1 - metrics["trace.cycle_children_coverage"]["value"]) < 0.02
    # A traced run leaves its spans as JSON lines.
    spans = (tmp_path / "fig9-update-seed1997-trace1.spans.jsonl").read_text()
    cycles = [json.loads(line) for line in spans.splitlines()]
    assert {"cycle", "core.refresh.refresh", "views.materialize.begin_version"} \
        <= {span["name"] for span in cycles}


def test_runner_refuses_repro_switches():
    env = dict(clean_environment(), REPRO_VERSIONED="0")
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "bulk-coarse", "--smoke"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert "REPRO_VERSIONED" in done.stderr
    assert not done.stdout.strip()

"""``run.py compare``: bounds, directions and the unresolved verdict."""

import json

from compare import main, spread, verdict


def test_spread_is_the_interquartile_distance_over_the_median():
    assert spread([1.0]) is None
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    assert 0.0 < spread(values) < 0.03


def test_verdicts_follow_direction_and_bound():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert verdict(steady, [1.04, 1.05, 1.03, 1.04], "lower", 0.10)[0] == "ok"
    assert verdict(steady, [1.20, 1.21, 1.19, 1.20], "lower", 0.10)[0] == "worse"
    assert verdict(steady, [0.50, 0.51, 0.49, 0.50], "lower", 0.10)[0] == "ok"
    assert verdict(steady, [0.80, 0.81, 0.79, 0.80], "higher", 0.10)[0] == "worse"
    assert verdict(steady, [1.20, 1.21, 1.19, 1.20], "higher", 0.10)[0] == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [1.0, 1.3, 0.8, 1.1, 0.7, 1.25]
    outcome, _worse_by, widest = verdict(noisy, noisy, "lower", 0.10)
    assert outcome == "unresolved" and widest > 0.10
    # Single runs have no spread of their own.
    outcome, _worse_by, widest = verdict([1.0], [1.05], "lower", 0.10)
    assert outcome == "ok" and widest is None


def write_set(path, cycle_s):
    runs = [
        {"workload": "w", "seed": seed, "trace": 0,
         "metrics": {"cycle_s": {"value": value, "unit": "s"}}}
        for seed, value in enumerate(cycle_s)
    ]
    runs.append({"workload": "w", "seed": 0, "trace": 1,
                 "metrics": {"cycle_s": {"value": 99.0, "unit": "s"}}})
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


CONTRACT = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "cycle_s", "unit": "s", "better": "lower", "bound": 0.10}
    ],
}


def test_main_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    a = write_set(tmp_path / "a.json", [1.0, 1.01, 0.99])
    b = write_set(tmp_path / "b.json", [1.3, 1.31, 1.29])
    assert main([a, a], CONTRACT) == 0
    assert " ok" in capsys.readouterr().out
    assert main([a, b], CONTRACT) == 1           # traced runs are ignored
    out = capsys.readouterr().out
    assert "worse" in out and "cycle_s" in out and "+30.0%" in out
    assert main([a], CONTRACT) == 2

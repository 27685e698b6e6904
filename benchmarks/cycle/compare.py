"""``run.py compare A.json B.json``: did B get worse than A?

Both files are sets written by ``run.py --all --json``.  For every
workload and end-to-end metric the medians over the set's untraced runs
are compared under the metric's direction and bound from
``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  either set's own spread — the distance between its first
                and third quartile as a share of its median — exceeds the
                bound, so the sets cannot tell a change of that size.

A set with one run per workload has no spread of its own and is never
``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (needs two runs)."""
    if len(values) < 2:
        return None
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def collect(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the set's untraced runs."""
    with open(path, encoding="utf-8") as source:
        runs = json.load(source)["runs"]
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for metric, measured in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(
                measured["value"]
            )
    return values


def verdict(
    before: list[float], after: list[float], better: str, bound: float
) -> tuple[str, float, float | None]:
    """(``ok``/``worse``/``unresolved``, by how much *after* is worse as a
    share of *before*'s median, the wider of the two spreads)."""
    base = statistics.median(before)
    change = (statistics.median(after) - base) / base
    worse_by = change if better == "lower" else -change
    spreads = [s for s in (spread(before), spread(after)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        return "unresolved", worse_by, widest
    return ("worse" if worse_by > bound else "ok"), worse_by, widest


def main(argv: list[str], contract: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    before, after = collect(argv[0]), collect(argv[1])
    print(f"{'workload':<13}{'metric':<16}{'A median':>12}{'B median':>12}"
          f"{'B worse by':>12}{'spread':>9}{'bound':>8}  verdict")
    status = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in before or key not in after:
                print(f"{workload:<13}{metric['name']:<16}  missing from a set")
                status = 1
                continue
            outcome, worse_by, widest = verdict(
                before[key], after[key], metric["better"], metric["bound"]
            )
            if outcome == "worse":
                status = 1
            shown = f"{widest:>8.1%}" if widest is not None else f"{'n/a':>8}"
            print(
                f"{workload:<13}{metric['name']:<16}"
                f"{statistics.median(before[key]):>12.5g}"
                f"{statistics.median(after[key]):>12.5g}"
                f"{worse_by:>+12.1%} {shown}{metric['bound']:>8.0%}  {outcome}"
            )
    return status

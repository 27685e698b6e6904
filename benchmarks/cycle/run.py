"""The cycle benchmark's one command.

    python3 benchmarks/cycle/run.py --workload fig9-update --seed 1997
    python3 benchmarks/cycle/run.py --workload serve-mixed --trace 1 --out DIR
    python3 benchmarks/cycle/run.py --all --json set-A.json
    python3 benchmarks/cycle/run.py compare set-A.json set-B.json

A run builds one warehouse, drives maintenance cycles and queries on the
program's shipped defaults, prints every metric by name with its unit,
checks the outputs, and ends with one line of JSON.  ``--trace 0`` (the
default) prints the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
the per-layer ones.  README.md in this directory says what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 1997
SMOKE_DIVISOR = 50


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        return json.load(source)


def commit() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess); the
    driver's checkouts are not repositories and report ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "switch_interval_s": sys.getswitchinterval(),
        "seed": seed,
        "commit": commit(),
    }


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    switches = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if switches:
        print(
            f"refusing to run with {', '.join(switches)} set: the benchmark "
            "measures the shipped defaults", file=sys.stderr,
        )
        return 2
    try:
        import harness
    except ImportError as failure:
        print(f"cannot load the program under test: {failure}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.scaled(SMOKE_DIVISOR)
    outcome = harness.Run(workload, args.seed, args.seconds, args.trace).execute()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    golden = check_golden(args, outcome)

    env = environment(args.seed)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}: {why}")
    print("  " + "  ".join(f"{key}={value}" for key, value in env.items()))
    print(f"  {'traced (per-layer)' if args.trace else 'untraced (end-to-end)'}"
          f"{', SMOKE SCALE 1/%d' % SMOKE_DIVISOR if args.smoke else ''}")
    for name, unit in units.items():
        if name in outcome.metrics:
            print(f"  {name:<44}{outcome.metrics[name]:>14.6g} {unit:<6} "
                  f"{outcome.notes.get(name, '')}")
    for key, value in outcome.info.items():
        print(f"  {key}: {value}")
    print(f"  golden digests: {golden}")
    print(f"  operations attempted {outcome.attempted}, failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items() if name in outcome.metrics
        },
    }
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
        record = dict(result, workload=args.workload, trace=int(args.trace),
                      env=env, notes=outcome.notes, info=outcome.info,
                      golden=golden, problems=outcome.problems)
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if outcome.tracer:
            outcome.tracer.write_jsonl(out / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def check_golden(args: argparse.Namespace, outcome) -> str:
    """Compare the final views' digests with ``golden.json``: recorded for
    the default seed at full scale, per number of cycles applied."""
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    key = f"{args.workload}/seed={args.seed}/cycles={outcome.digest_cycles}"
    if args.update_golden:
        golden[key] = outcome.digests
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return f"recorded under {key}"
    if args.smoke or key not in golden:
        return f"none recorded for {key}"
    if golden[key] != outcome.digests:
        differing = sorted(
            view for view, value in outcome.digests.items()
            if golden[key].get(view) != value
        )
        outcome.problems.append(f"views differ from golden.json: {differing}")
        return f"MISMATCH in {differing}"
    return f"match ({key})"


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, each run in a fresh process: untraced for each seed,
    then traced once.  ``--json`` collects the final lines into one set."""
    runs = []
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        plan = [(args.seed + offset, 0) for offset in range(args.seeds)]
        plan.append((args.seed, 1))
        for seed, trace in plan:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", args.out]
            start = time.perf_counter()
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            wall_s = round(time.perf_counter() - start, 1)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode:
                status = done.returncode
                continue
            runs.append(dict(
                json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1]),
                workload=workload, seed=seed, trace=trace, wall_s=wall_s,
            ))
    if args.json:
        record = {"env": environment(args.seed), "runs": runs}
        pathlib.Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = contract()
    if argv[:1] == ["compare"]:
        from compare import main as compare_main
        return compare_main(argv[1:], spec)

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=names)
    target.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced, each in "
                             "a fresh process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="nominal length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", help="directory for the run record and, "
                                      "traced, the spans as JSON lines")
    parser.add_argument("--smoke", action="store_true",
                        help=f"1/{SMOKE_DIVISOR} scale, for the harness tests")
    parser.add_argument("--seeds", type=int, default=1,
                        help="with --all: untraced runs per workload, on "
                             "consecutive seeds")
    parser.add_argument("--json", help="with --all: write the set here")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's view digests in golden.json")
    args = parser.parse_args(argv)
    return run_all(args, spec) if args.all else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

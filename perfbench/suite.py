"""Run the benchmark over several workloads and seeds and summarise it.

Usage, from the root of a checkout::

    python3 perfbench/suite.py --seeds 10                 # every workload
    python3 perfbench/suite.py --workloads sat games --seeds 5 --out runs.json
    python3 perfbench/suite.py --compare first.json second.json

Each run is a separate ``perfbench/run.py`` process, so peak memory is per
run, and the seeds are always 0 to N-1, so two sets of runs share their
inputs.  For every workload and metric the summary gives the median over the
seeds and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``; the exit code is 1 when a spread is
above a third of its bound.  ``--out`` writes every run, with the machine it
ran on, as JSON.  ``--compare`` runs nothing: it reads two such files and
exits 1 when a median in the second is worse than in the first by more than
the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when flat)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; its detail line and its result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return {"detail": json.loads(lines[0]), "result": json.loads(lines[-1])}


def compare(spec: dict, first_path: Path, second_path: Path) -> int:
    """Each end-to-end median of the second set against the first; 1 when
    one is worse by more than its bound."""
    first, second = (json.loads(path.read_text())["runs"] for path in (first_path, second_path))
    agree = True
    print(f"  {'workload':8s} {'metric':16s} {'first':>14s} {'second':>14s} {'worse by':>9s} {'bound':>6s}")
    for workload in [w for w in first if w in second]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (statistics.median(r["result"]["metrics"][name]["value"] for r in runs[workload])
                    for runs in (first, second))
            worse = (b - a if metric["better"] == "lower" else a - b) / abs(a)
            flag = "  <- worse than the bound" if worse > bound else ""
            agree = agree and worse <= bound
            print(f"  {workload:8s} {name:16s} {a:14.6g} {b:14.6g} {worse:9.4f} {bound:6.3g}{flag}")
    return 0 if agree else 1


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 0..N-1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run here as JSON")
    parser.add_argument("--note", default="", help="free text stored with --out, e.g. the test-suite state")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"),
                        help="compare the medians of two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in range(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.setdefault(workload, []).append(run)
            result = run["result"]
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    steady = True
    for workload, workload_runs in runs.items():
        print(f"\n{workload}: {len(workload_runs)} runs")
        print(f"  {'metric':32s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in workload_runs]
            s = spread(values)
            flag = ""
            if bound is not None and s > bound / 3:
                flag = "  <- above a third of the bound"
                steady = False
            unit = workload_runs[0]["result"]["metrics"][name]["unit"]
            bound_text = f"{bound:6.3g}" if bound is not None else "     -"
            print(f"  {name:32s} {statistics.median(values):14.6g} {s:8.4f} {bound_text} {unit}{flag}")
        if not args.trace:
            fails = [r["detail"]["fail_ratio"] for r in workload_runs]
            print(f"  {'fail_ratio':32s} {max(fails):14.6g} {'(max)':>8s}        ratio")
    if args.out:
        machine = next(iter(runs.values()))[0]["detail"]["machine"] if runs else {}
        args.out.write_text(json.dumps({"machine": machine, "note": args.note, "seconds": args.seconds,
                                        "trace": args.trace, "runs": runs}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""selcc benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sat --seed 0 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``sat``, ``games``,
``nondet`` and ``laws``.  One caller in one thread sends the next item only
after the previous one is solved and checked, until ``--seconds`` have passed
and every item of the pool has run at least once (a ``laws`` item is a whole
``selcc laws`` pass, about a minute).

``--trace 0`` prints the end-to-end metrics.  Times are scaled to a fixed
machine speed by :mod:`calibrate`; the raw wall-clock figures are on the
first output line.  ``ok_ratio`` is one minus the failed share of items, so
the metric is never zero; the failed share itself is ``fail_ratio`` on the
first line.  ``--trace 1`` runs the pool untraced and traced by turns, with
spans around each call into selcc's public functions, checks that both give
the same answers, prints the per-layer metrics of one traced pass and writes
its spans to ``.perfbench_out/``.  On ``laws`` it makes one traced pass only
(``traced_equals_untraced`` is null) and times the seven short suites
untraced and traced by turns for ``trace.overhead_ratio``.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from calibrate import Speedometer, paired
from tracing import Counter, Recorder
from workloads import LAW_SUITES, WORKLOADS, Item, Workload, law_suite_calls

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 21
TAIL_BEYOND = 10


def machine() -> dict[str, Any]:
    """Where a result was measured: core count, interpreter, platform, commit."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def import_selcc() -> Any:
    """A fresh import of the checkout's selcc, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "selcc" or m.startswith("selcc.")]:
        del sys.modules[name]
    return importlib.import_module("selcc")


def timed_setup(wl: Workload, items: list[Item]) -> tuple[Any, list[Any], list[float], list[float]]:
    """Import selcc and build every spec ``SETUP_REPS`` times, each from a
    collected heap and between two set-up calibration runs; the scaled and
    the raw seconds of each repetition."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        (lib, specs), seconds, raw_seconds = paired(lambda: setup_once(wl, items))
        scaled.append(seconds)
        raw.append(raw_seconds)
    return lib, specs, scaled, raw


def setup_once(wl: Workload, items: list[Item]) -> tuple[Any, list[Any]]:
    lib = import_selcc()
    return lib, wl.setup(lib, items, Counter())


class Tally:
    """Outcomes of solved items: time spans, checks and per-item counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float, str]] = []  # start, end, yardstick
        self.answers: dict[int, Any] = {}
        self.evals: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.exact = True

    def solve(self, wl: Workload, lib: Any, item: Item, spec: Any, expected: Any, tr: Counter) -> None:
        before = tr.calls
        start = time.perf_counter()
        try:
            answer = wl.solve(lib, item, spec, tr)
        except Exception:  # a failed item must not end the pass
            end = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            answer = None
            attempted = failed = wl.item_units
        else:
            end = time.perf_counter()
            attempted, failed = wl.check(item, answer, expected)
        self.spans.append((start, end, wl.yardstick(item)))
        self.attempted += attempted
        self.failed += failed
        calls = tr.calls - before
        if self.evals.setdefault(item.id, calls) != calls:
            self.exact = False
        self.answers.setdefault(item.id, answer)

    def seconds(self, speed: Speedometer) -> list[float]:
        return [speed.scaled(*span) for span in self.spans]

    def raw_seconds(self) -> list[float]:
        return [end - start for start, end, _ in self.spans]


def closed_loop(wl, lib, items, specs, expected, seconds: float) -> Tally:
    """Solve items in pool order until ``seconds`` passed and each ran once."""
    tally = Tally()
    counter = Counter()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(items) or time.perf_counter() < deadline:
        j = i % len(items)
        tally.solve(wl, lib, items[j], specs[j], expected[j], counter)
        i += 1
    return tally


def one_pass(wl, lib, items, specs, expected, tr: Counter) -> tuple[Tally, float, float]:
    """Each item once; the tally and the pass's start and end."""
    tally = Tally()
    start = time.perf_counter()
    for item, spec, exp in zip(items, specs, expected):
        with tr.span("item", item.id):
            tally.solve(wl, lib, item, spec, exp, tr)
    return tally, start, time.perf_counter()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value (the maximum, at percentile 100, when there are too few samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(wl, items, seed: int, seconds: float) -> tuple[dict[str, Any], dict[str, Any]]:
    lib, specs, setup, raw_setup = timed_setup(wl, items)
    with Speedometer() as speed:
        expected = wl.expected(lib, items, specs)
        tally = closed_loop(wl, lib, items, specs, expected, seconds)
    latencies = tally.seconds(speed)
    raw = tally.raw_seconds()
    pct, tail_s = tail(latencies)
    values = {
        "items_per_s": (tally.attempted / sum(latencies), "items/s"),
        "solve_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "solve_tail_ms": (tail_s * 1000, "ms"),
        "user_evals": (wl.user_evals(tally.evals), "count"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
    }
    detail = {
        "fail_ratio": tally.failed / tally.attempted,
        "tail_percentile": round(pct, 2),
        "latency_samples": len(latencies),
        "user_evals_exact": tally.exact,
        "raw_wall": {
            "items_per_s": tally.attempted / sum(raw),
            "solve_p50_ms": statistics.median(raw) * 1000,
            "solve_tail_ms": tail(raw)[1] * 1000,
            "setup_s": statistics.median(raw_setup),
        },
        "kernel_ms_median": {name: statistics.median(v) * 1000 for name, v in speed.samples.items()},
    }
    result = {
        "correct": tally.failed == 0 and tally.exact,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    return result, detail


def law_overhead(lib: Any, seed: int, speed: Speedometer) -> float:
    """Untraced over traced seconds of the seven short law suites.  Each suite
    runs untraced and traced back to back, the order flipping from suite to
    suite, so drift in machine speed falls on both sides.  The two exhaustive
    suites take over a minute, so they run once, traced only."""
    short = [(name, call) for name, call in law_suite_calls(lib, seed).items()
             if name not in ("selection_monad", "quantifier_monad")]
    rec = Recorder()
    seconds = {False: 0.0, True: 0.0}
    for i, (name, call) in enumerate(short):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            with rec.span(f"laws.{name}") if traced else contextlib.nullcontext():
                call()
            seconds[traced] += speed.scaled(start, time.perf_counter())
    return seconds[False] / seconds[True]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(rec: Recorder, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one traced pass, from the recorded spans."""
    solvers = ("search.sat_product", "search.sat_callcc", "games.backward_induction",
               "games.sum_selections", "core.run_selection", "core.run_quantifier")
    sat_spans = ("search.sat_product", "search.sat_callcc")
    formula_evals = rec.agg("user", "calls", ("search.sat_product",))
    payoff_calls = rec.agg("user", "calls", ("games.backward_induction",))
    m: dict[str, tuple[float, str]] = {
        "cli.parse_s": (rec.total("cli.parse"), "s"),
        "cli.formula_eval_s": (rec.agg("user", "self_s", sat_spans), "s"),
        "search.sat_product_s": (rec.total("search.sat_product"), "s"),
        "search.sat_callcc_s": (rec.total("search.sat_callcc"), "s"),
        "search.formula_evals": (formula_evals, "count"),
        "search.evals_vs_oracle": (ratio(formula_evals, rec.agg("user", "calls", ("search.sat_oracle",))), "ratio"),
        "search.trace_lines": (sum(s.get("lines", 0) for s in rec.spans), "count"),
        "core.self_s": (
            sum(rec.total(name, "self") for name in solvers)
            + rec.agg("chooser", "self_s") + rec.agg("bind_f", "self_s"),
            "s",
        ),
        "core.chooser_runs": (rec.agg("chooser", "calls"), "count"),
        "effects.bind_calls": (rec.agg("bind", "calls"), "count"),
        "effects.bind_s": (rec.agg("bind", "self_s"), "s"),
        "effects.alts_in": (rec.agg("bind", "alts_in"), "count"),
        "effects.alts_out": (rec.agg("bind", "alts_out"), "count"),
        "effects.big_bind_s": (rec.agg("bind", "self_s", ("core.run_quantifier",)), "s"),
        "games.backward_induction_s": (rec.total("games.backward_induction"), "s"),
        "games.payoff_calls": (payoff_calls, "count"),
        "games.payoff_calls_vs_oracle": (
            ratio(payoff_calls, rec.agg("user", "calls", ("games.backward_induction_oracle",))), "ratio"),
        "games.sum_selections_s": (rec.total("games.sum_selections"), "s"),
        "games.sum_k_calls": (rec.agg("user", "calls", ("games.sum_selections",)), "count"),
        "games.oracle_s": (rec.total("games.backward_induction_oracle") + rec.total("games.nash_oracle"), "s"),
    }
    for suite in LAW_SUITES:
        spans = [s for s in rec.spans if s["name"] == f"laws.{suite}"]
        m[f"laws.{suite}_s"] = (rec.total(f"laws.{suite}"), "s")
        m[f"laws.{suite}_cases"] = (sum(s.get("cases", 0) for s in spans), "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def trace_run(wl, items, seed: int) -> tuple[dict[str, Any], dict[str, Any]]:
    lib = import_selcc()
    specs = wl.setup(lib, items, Counter())
    expected = wl.expected(lib, items, specs)
    rec = Recorder()
    with Speedometer() as speed:
        with rec.span("setup"):
            traced_specs = wl.setup(lib, items, rec)
        if wl.name == "laws":
            traced_run, start, end = one_pass(wl, lib, items, traced_specs, expected, rec)
            overhead = law_overhead(lib, seed, speed)
            # An untraced pass would take another minute, so answers are
            # not compared here (None); the traced pass is still checked.
            same = None
        else:
            # Untraced and traced passes alternate, so drift in machine speed
            # falls on both sides of the overhead ratio; spans come from the
            # first traced pass only.
            plain_run, *plain = one_pass(wl, lib, items, specs, expected, Counter())
            traced_run, start, end = one_pass(wl, lib, items, traced_specs, expected, rec)
            plain_again, *plain2 = one_pass(wl, lib, items, specs, expected, Counter())
            spare = Recorder()
            with spare.span("setup"):
                spare_specs = wl.setup(lib, items, spare)
            traced_again, *traced2 = one_pass(wl, lib, items, spare_specs, expected, spare)
            overhead = (speed.scaled(*plain) + speed.scaled(*plain2)) / (
                speed.scaled(start, end) + speed.scaled(*traced2))
            # Counts are not compared: the untraced demo-sat items run inside
            # selcc.main, where no continuation can be wrapped.
            same = all(run.answers == plain_run.answers for run in (traced_run, plain_again, traced_again))
            traced_run.failed += plain_run.failed + plain_again.failed + traced_again.failed
        factor = speed.factor(start, end)
        wl.oracles(lib, items, traced_specs, rec)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{wl.name}-{seed}.json").write_text(json.dumps(rec.spans))
    metrics = layer_metrics(rec, overhead)
    result = {
        "correct": traced_run.failed == 0 and same is not False,
        "attempted": traced_run.attempted,
        "failed": traced_run.failed,
        "metrics": {name: {"value": v * factor if u == "s" else v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    return result, {"traced_equals_untraced": same, "speed_factor": factor}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "selcc" / "__init__.py").is_file():
        print(f"error: no selcc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    items = wl.generate(args.seed)
    if args.trace:
        result, detail = trace_run(wl, items, args.seed)
    else:
        result, detail = end_to_end(wl, items, args.seed, args.seconds)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "machine": machine(), **detail}))
    for name, metric in result["metrics"].items():
        print(f"{wl.name:7s} {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

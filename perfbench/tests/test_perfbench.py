"""Self-tests of the benchmark: generators, checks, counters and tracing.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
from tracing import Counter, Recorder  # noqa: E402
from workloads import (  # noqa: E402
    LAW_CASES,
    LAW_REPORTS,
    SUITE_CASES,
    WORKLOADS,
    check_law_transcript,
    law_suite_calls,
)

import selcc  # noqa: E402

SHORT = ("sat", "games", "nondet")


def prepared(name: str, seed: int = 0, limit: int | None = None):
    wl = WORKLOADS[name]
    items = wl.generate(seed)[:limit]
    specs = wl.setup(selcc, items, Counter())
    return wl, items, specs, wl.expected(selcc, items, specs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    assert wl.generate(3) == wl.generate(3)
    if name != "laws":
        assert wl.generate(3) != wl.generate(4)


def test_sat_generator_mixes_satisfiable_and_unsatisfiable():
    items = WORKLOADS["sat"].generate(0)
    kinds = {refs.sat_reference(item.data[1], item.data[0])[1] for item in items}
    assert kinds == {True, False}


def test_sat_reference_matches_the_product_on_every_item():
    wl, items, specs, expected = prepared("sat")
    for item, spec, exp in zip(items, specs, expected):
        if item.kind == "product":
            assert selcc.sat_product(spec) == exp


@pytest.mark.parametrize("name", SHORT)
def test_every_item_passes_its_check(name):
    wl, items, specs, expected = prepared(name, limit=5)
    tally, _, _ = run.one_pass(wl, selcc, items, specs, expected, Counter())
    assert (tally.attempted, tally.failed) == (len(items), 0)


def test_check_rejects_a_flipped_sat_bit():
    wl, items, specs, expected = prepared("sat", limit=1)
    answer = selcc.sat_product(specs[0])
    flipped = (not answer[0],) + answer[1:]
    assert wl.check(items[0], answer, expected[0]) == (1, 0)
    assert wl.check(items[0], flipped, expected[0]) == (1, 1)


def test_check_rejects_a_wrong_demo_sat_line():
    wl, items, specs, expected = prepared("sat", limit=2)
    assert items[1].kind == "callcc"
    line = wl.solve(selcc, items[1], specs[1], Counter())
    assert wl.check(items[1], line, expected[1]) == (1, 0)
    wrong = line.replace("True", "X", 1).replace("False", "True", 1).replace("X", "False")
    assert wl.check(items[1], wrong, expected[1]) == (1, 1)


def test_check_rejects_a_wrong_play_and_a_dropped_equilibrium():
    wl, items, specs, expected = prepared("games")
    seq = next(i for i, item in enumerate(items) if item.kind == "seq")
    play, outcome = wl.solve(selcc, items[seq], specs[seq], Counter())
    other = tuple(specs[seq].stages[0].moves[1] if j == 0 else m for j, m in enumerate(play))
    assert wl.check(items[seq], (play, outcome), expected[seq]) == (1, 0)
    assert wl.check(items[seq], (other, outcome), expected[seq]) == (1, 1)

    sim = next(i for i, item in enumerate(items) if item.kind == "sim" and expected[i])
    equilibria = wl.solve(selcc, items[sim], specs[sim], Counter())
    assert wl.check(items[sim], equilibria, expected[sim]) == (1, 0)
    assert wl.check(items[sim], equilibria[1:], expected[sim]) == (1, 1)


def test_check_rejects_a_reordered_nondet_set():
    wl, items, specs, expected = prepared("nondet")
    for kind in ("big", "tie"):
        i = next(i for i, item in enumerate(items) if item.kind == kind)
        answer = wl.solve(selcc, items[i], specs[i], Counter())
        assert wl.check(items[i], answer, expected[i]) == (1, 0)
        assert wl.check(items[i], tuple(reversed(answer)), expected[i]) == (1, 1)


def test_law_transcript_check_rejects_one_fail_line():
    lines = [f"PASS suite {i} (10 cases)" for i in range(LAW_REPORTS)]
    summary = f"{LAW_REPORTS}/{LAW_REPORTS} suites passed, {LAW_CASES} cases total"
    assert check_law_transcript(0, "\n".join(lines + [summary]) + "\n") == 0
    lines[3] = "FAIL suite 3 (2/10 failed)"
    failing = f"{LAW_REPORTS - 1}/{LAW_REPORTS} suites passed, {LAW_CASES} cases total"
    assert check_law_transcript(1, "\n".join(lines + [failing]) + "\n") > 0
    assert check_law_transcript(0, "\n".join(lines + [summary]) + "\n") > 0
    assert check_law_transcript(0, "\n".join(lines[:-1] + [summary]) + "\n") > 0


@pytest.mark.parametrize("name", SHORT)
def test_user_evals_repeat_exactly(name):
    wl, items, specs, expected = prepared(name, limit=5)
    first, _, _ = run.one_pass(wl, selcc, items, specs, expected, Counter())
    again, _, _ = run.one_pass(wl, selcc, items, specs, expected, Counter())
    assert first.evals == again.evals
    assert wl.user_evals(first.evals) > 0


@pytest.mark.parametrize("name", SHORT)
def test_tracing_changes_no_answer_and_no_count(name):
    wl, items, specs, expected = prepared(name, limit=5)
    plain, _, _ = run.one_pass(wl, selcc, items, specs, expected, Counter())
    rec = Recorder()
    traced_specs = wl.setup(selcc, items, rec)
    traced, _, _ = run.one_pass(wl, selcc, items, traced_specs, expected, rec)
    assert traced.answers == plain.answers
    counted = [i.id for i in items if i.kind != "callcc"]
    assert [traced.evals[i] for i in counted] == [plain.evals[i] for i in counted]


def test_traced_counts_repeat_exactly():
    def layers():
        wl, items, specs, expected = prepared("nondet", limit=5)
        rec = Recorder()
        run.one_pass(wl, selcc, items, specs, expected, rec)
        m = run.layer_metrics(rec, 1.0)
        return {k: v for k, (v, unit) in m.items() if unit == "count"}

    first = layers()
    assert first == layers()
    assert first["effects.bind_calls"] > 0 and first["core.chooser_runs"] > 0
    assert first["effects.alts_in"] >= first["effects.alts_out"] > 0


def test_short_law_suites_keep_their_case_counts():
    calls = law_suite_calls(selcc, 0)
    for suite in ("morphism", "agent_partition", "sat_correctness", "sum_equilibria"):
        for _ in range(2):
            assert sum(r.cases for r in calls[suite]()) == SUITE_CASES[suite]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:5]) == (100.0, 5.0)


def test_scaling_removes_the_kernel_and_the_machine_speed():
    speed = calibrate.Speedometer()
    # The kernel took twice its reference time throughout: the machine ran
    # at half speed, and one kernel run fell inside the interval.
    # The scan kernel ran at full speed.
    speed.starts = [0.0, 0.1, 0.2, 0.3]
    speed.samples = {"search": [2 * calibrate.REF_KERNEL_S] * 4, "scan": [calibrate.REF_SCAN_KERNEL_S] * 4}
    speed.durations = [2 * calibrate.REF_KERNEL_S + calibrate.REF_SCAN_KERNEL_S] * 4
    left = 0.1 - speed.durations[0]
    assert speed.scaled(0.05, 0.15) == pytest.approx(left / 2)
    assert speed.scaled(0.05, 0.15, "scan") == pytest.approx(left)


@pytest.mark.parametrize("name", SHORT)
def test_user_evals_do_not_depend_on_the_seed(name):
    counts = []
    for seed in (0, 1):
        wl, items, specs, expected = prepared(name, seed=seed, limit=6)
        tally, _, _ = run.one_pass(wl, selcc, items, specs, expected, Counter())
        counts.append(wl.user_evals(tally.evals))
    assert counts[0] == counts[1]


def test_paired_scales_by_the_setup_kernel(monkeypatch):
    # The set-up kernel took twice its reference time around the call: the
    # call's time counts half.
    monkeypatch.setattr(calibrate, "setup_kernel", lambda: time.sleep(2 * calibrate.REF_SETUP_KERNEL_S))
    result, scaled, raw = calibrate.paired(lambda: time.sleep(0.02) or "done")
    assert result == "done"
    assert scaled == pytest.approx(raw / 2, rel=0.2)

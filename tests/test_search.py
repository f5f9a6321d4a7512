"""Tests for the probe selection and the three SAT entry points."""
from __future__ import annotations

import collections
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selcc import (
    BooleanFormula,
    EffectInstance,
    SelectionComputation,
    TraceValue,
    bool_probe,
    format_assignment,
    run_quantifier,
    run_selection,
    sat_callcc,
    sat_oracle,
    sat_product,
    sel_bind,
    sel_lift,
    sel_map,
    sel_sequence,
    tell,
    to_quantifier,
    trace_effect,
)
from selcc import search
from selcc.cli import parse_formula
from selcc.core import SELECTION

from helpers import fold_sequence, paper_sel_bind, source_mutant, unshared_callcc_term

_TARGET = BooleanFormula(3, lambda b: b[0] and not b[1] and b[2])

_DUMMY = "[False,False,False]"


def _probe_line(value: bool) -> str:
    return f"b = {value}, "


def _call_line(assignment: str) -> str:
    return f"Continuation called with {assignment}"


# The complete trace for the target formula: each variable probe logs its
# trial value and fires the continuation once with the dummy (all-False)
# assignment; full search paths then call the continuation genuinely.
_EXPECTED_LOG = [
    _probe_line(True), _call_line(_DUMMY),
    _probe_line(True), _call_line(_DUMMY),
    _probe_line(True), _call_line(_DUMMY), _call_line("[True,True,True]"),
    _probe_line(False), _call_line(_DUMMY), _call_line("[True,True,False]"),
    _probe_line(False), _call_line(_DUMMY),
    _probe_line(True), _call_line(_DUMMY), _call_line("[True,False,True]"),
    _probe_line(True), _call_line(_DUMMY), _call_line("[True,False,True]"),
    _probe_line(True), _call_line(_DUMMY),
    _probe_line(True), _call_line(_DUMMY),
    _probe_line(True), _call_line(_DUMMY), _call_line("[True,True,True]"),
    _probe_line(False), _call_line(_DUMMY), _call_line("[True,True,False]"),
    _probe_line(False), _call_line(_DUMMY),
    _probe_line(True), _call_line(_DUMMY), _call_line("[True,False,True]"),
    _probe_line(True), _call_line(_DUMMY), _call_line("[True,False,True]"),
]


# A formula that answers 1 and 0, not True and False.  The probes log the
# values it answers, so ``b = 1, `` and ``b = 0, `` must not turn into the
# lines of the bools they equal.
_INT_VALUED = BooleanFormula(2, lambda b: 1 if b[0] and not b[1] else 0)

_INT_VALUED_LOG = [
    "b = True, ", _call_line("[False,False]"),
    "b = True, ", _call_line("[False,False]"), _call_line("[True,True]"),
    "b = 0, ", _call_line("[False,False]"), _call_line("[True,False]"),
    "b = 1, ", _call_line("[False,False]"),
    "b = True, ", _call_line("[False,False]"), _call_line("[True,True]"),
    "b = 0, ", _call_line("[False,False]"), _call_line("[True,False]"),
]


def _truth_table_formula(arity: int, table: tuple[bool, ...]) -> BooleanFormula:
    assignments = list(itertools.product((False, True), repeat=arity))
    mapping = dict(zip(assignments, table))
    return BooleanFormula(arity, lambda bits: mapping[tuple(bits)])


def _counting(formula: BooleanFormula) -> tuple[BooleanFormula, list[int]]:
    """The same formula, with a one-slot counter of its evaluations."""
    calls = [0]

    def evaluate(bits):
        calls[0] += 1
        return formula.evaluate(bits)

    return BooleanFormula(formula.arity, evaluate), calls


class TestBoolProbe:
    def test_chooses_by_the_continuation_at_true(self):
        assert run_selection(bool_probe(), lambda b: b) is True
        assert run_selection(bool_probe(), lambda b: not b) is False
        assert run_selection(bool_probe(), lambda _: True) is True


class TestFormatAssignment:
    def test_matches_the_printed_style(self):
        assert format_assignment((True, False, True)) == "[True,False,True]"
        assert format_assignment(()) == "[]"
        assert format_assignment((False,)) == "[False]"

    def test_renders_any_value_by_its_truth(self):
        values = (True, False, 0, 1, 2, "", None)
        for arity in range(3):
            for bits in itertools.product(values, repeat=arity):
                assert format_assignment(bits) == "[" + ",".join(map(str, map(bool, bits))) + "]"


class TestSatProduct:
    def test_finds_the_conjunction_witness(self):
        assert sat_product(_TARGET) == (True, False, True)

    def test_unsatisfiable_formula_yields_all_false(self):
        assert sat_product(BooleanFormula(3, lambda _: False)) == (False, False, False)

    def test_tautology_yields_all_true(self):
        assert sat_product(BooleanFormula(2, lambda _: True)) == (True, True)

    def test_is_deterministic(self):
        assert sat_product(_TARGET) == sat_product(_TARGET)


class TestSatCallcc:
    def test_full_log_is_byte_exact(self):
        log, bits = sat_callcc(_TARGET)
        assert log == _EXPECTED_LOG
        assert bits == (True, False, True)

    def test_a_formula_answering_ints_logs_them(self):
        log, bits = sat_callcc(_INT_VALUED)
        assert log == _INT_VALUED_LOG
        assert list(map(type, bits)) == [int, int] and bits == (1, 0)
        assert format_assignment(bits) == "[True,False]"

    def test_probe_lines_and_their_values(self):
        log, _ = sat_callcc(_TARGET)
        probes = [line for line in log if line.startswith("b = ")]
        assert len(probes) == 14
        values = [line == _probe_line(True) for line in probes]
        expected = [True, True, True, False, False, True, True] * 2
        assert values == expected

    def test_genuine_continuation_sequence_ends_at_the_witness(self):
        log, bits = sat_callcc(_TARGET)
        genuine = [
            line.removeprefix("Continuation called with ")
            for line in log
            if line.startswith("Continuation called with ")
            and not line.endswith(_DUMMY)
        ]
        sequence = genuine + [format_assignment(bits)]
        assert sequence == [
            "[True,True,True]",
            "[True,True,False]",
            "[True,False,True]",
            "[True,False,True]",
            "[True,True,True]",
            "[True,True,False]",
            "[True,False,True]",
            "[True,False,True]",
            "[True,False,True]",
        ]

    def test_instrumentation_never_changes_the_choice(self):
        for table in itertools.product((False, True), repeat=8):
            formula = _truth_table_formula(3, table)
            _, bits = sat_callcc(formula)
            assert bits == sat_product(formula)

    def test_rejects_zero_variables(self):
        with pytest.raises(ValueError):
            sat_callcc(BooleanFormula(0, lambda _: True))


class TestSatOracle:
    def test_finds_a_witness_the_product_agrees_with(self):
        witness = sat_oracle(_TARGET)
        assert witness is not None
        assert _TARGET.evaluate(sat_product(_TARGET))

    def test_unsatisfiable_yields_none(self):
        assert sat_oracle(BooleanFormula(2, lambda _: False)) is None

    def test_prefers_false_lexicographically(self):
        assert sat_oracle(BooleanFormula(1, lambda _: True)) == (False,)

    def test_rejects_oversized_arity(self):
        with pytest.raises(ValueError):
            sat_oracle(BooleanFormula(21, lambda _: True))

    def test_witness_is_lexicographically_first(self):
        for table in itertools.product((False, True), repeat=4):
            formula = _truth_table_formula(2, table)
            expected = next(
                (
                    bits
                    for bits in itertools.product((False, True), repeat=2)
                    if formula.evaluate(bits)
                ),
                None,
            )
            assert sat_oracle(formula) == expected


class TestProductAgainstOracle:
    @given(st.lists(st.booleans(), min_size=16, max_size=16))
    def test_product_succeeds_exactly_when_satisfiable(self, table):
        formula = _truth_table_formula(4, tuple(table))
        chosen = sat_product(formula)
        assert formula.evaluate(chosen) == (sat_oracle(formula) is not None)


class TestSatProductEvaluationCounts:
    """Exact formula-evaluation counts.  ``sat_product`` runs each chosen
    branch again, as the paper's bind does, so its cost is 2^n - 1 for
    every formula; ``sel_sequence``'s memoised product of the same probes
    stops early on satisfiable ones."""

    @pytest.mark.parametrize("arity", [1, 2, 5, 12])
    def test_unsatisfiable_formula_makes_exactly_two_to_the_n_minus_one(self, arity):
        formula, calls = _counting(BooleanFormula(arity, lambda _: False))
        assert sat_product(formula) == (False,) * arity
        assert calls[0] == 2**arity - 1

    def test_all_true_formula_costs_the_same_as_an_unsatisfiable_one(self):
        formula, calls = _counting(BooleanFormula(12, all))
        assert sat_product(formula) == (True,) * 12
        assert calls[0] == 2**12 - 1

    def test_random_tables_cost_exactly_the_bound_and_agree_with_the_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            arity = rng.randint(1, 10)
            density = rng.choice((0.0, 0.001, 0.01, 0.1, 0.5))
            table = tuple(rng.random() < density for _ in range(2**arity))
            plain = _truth_table_formula(arity, table)
            formula, calls = _counting(plain)
            chosen = sat_product(formula)
            assert calls[0] == 2**arity - 1
            assert plain.evaluate(chosen) == (sat_oracle(plain) is not None)

    def test_memoised_product_needs_one_evaluation_per_variable_on_all(self):
        formula, calls = _counting(BooleanFormula(20, all))
        probes = [bool_probe() for _ in range(20)]
        assert run_selection(sel_sequence(probes), formula.evaluate) == (True,) * 20
        assert calls[0] == 20

    def test_a_true_choice_served_from_scoring_is_caught(self, monkeypatch):
        # Such a product answers right, and costs 2^n - 1 on unsatisfiable
        # formulas too, but stops early on satisfiable ones.
        monkeypatch.setitem(globals(), "sat_product", _served_from_scoring())
        self.test_unsatisfiable_formula_makes_exactly_two_to_the_n_minus_one(5)
        with pytest.raises(AssertionError):
            self.test_all_true_formula_costs_the_same_as_an_unsatisfiable_one()
        with pytest.raises(AssertionError):
            self.test_random_tables_cost_exactly_the_bound_and_agree_with_the_oracle()


def _served_from_scoring():
    """``sat_product`` whose inner stages answer a True choice with the run
    that scored it, as a memo would, instead of running it again."""
    return source_mutant(
        sat_product,
        (
            "        return solve(prefix + (evaluate(solve(prefix + (True,))),))",
            "        scored = solve(prefix + (True,))\n"
            "        choice = evaluate(scored)\n"
            "        return scored if choice is True else solve(prefix + (choice,))",
        ),
    )


def _assert_sat_product_is_the_papers_fold(
    arities=range(9), seed: int = 0, count: int = 34
) -> None:
    """``sat_product`` on ``count`` seeded tables for each arity, a third of
    them answering the ints 0 and 1, against the fold of :func:`bool_probe`
    selections bound with the paper's bind: the same answers, element by
    element by identity, and the same evaluations in the same order."""
    for arity in arities:
        rng = random.Random(100 * seed + arity)
        for index in range(count):
            answers = _ANSWERS["int" if index % 3 == 0 else "bool"]
            density = rng.choice((0.0, 0.01, 0.1, 0.5, 1.0))
            table = tuple(answers[rng.random() < density] for _ in range(2**arity))
            plain = _truth_table_formula(arity, table)
            formula, seen = _evaluated(plain)
            folded, want_seen = _evaluated(plain)
            bits = sat_product(formula)
            probes = [bool_probe() for _ in range(arity)]
            want_bits = run_selection(fold_sequence(probes, paper_sel_bind), folded.evaluate)
            # By identity: 1 == True, so equality would not see a swapped value.
            assert len(bits) == len(want_bits) and all(map(lambda a, b: a is b, bits, want_bits))
            assert seen == want_seen, (arity, table)


class TestSatProductAgainstThePapersFold:
    """``sat_product`` is the paper's product of probes over identity, with
    each bind applied."""

    @pytest.mark.parametrize("arity", range(9))
    def test_seeded_tables_answer_and_evaluate_as_the_fold(self, arity):
        _assert_sat_product_is_the_papers_fold(arities=[arity])

    def test_a_true_choice_served_from_scoring_is_caught(self, monkeypatch):
        monkeypatch.setitem(globals(), "sat_product", _served_from_scoring())
        with pytest.raises(AssertionError):
            _assert_sat_product_is_the_papers_fold()


def _reference_sat_callcc(formula: BooleanFormula):
    """``sat_callcc`` as it was before it built its fixed stages once per
    search: every continuation call rebuilds its per-variable stage, its
    after-probe computation and its call of the continuation on the dummy,
    every run of that call runs the continuation again, and each answer is
    its logged line mapped to the assignment."""
    eff = trace_effect()
    dummy = (False,) * formula.arity

    def log(line):
        return sel_lift(tell(line), eff)

    probe_true, probe_false = log("b = True, "), log("b = False, ")
    dummy_call = log(f"Continuation called with {format_assignment(dummy)}")

    def probe_line(b):
        if b is True:
            return probe_true
        if b is False:
            return probe_false
        return log(f"b = {b}, ")

    def step(kk):
        def per_variable(_):
            return sel_bind(
                bool_probe(eff),
                lambda b: sel_bind(probe_line(b), lambda _: sel_map(kk(dummy), lambda _: b)),
            )

        return sel_sequence([per_variable(i) for i in range(formula.arity)], eff)

    def call_line(bits):
        if bits is dummy:
            return dummy_call
        return log(f"Continuation called with {format_assignment(bits)}")

    program = sel_bind(
        unshared_callcc_term(SELECTION, step, eff),
        lambda bits: sel_map(call_line(bits), lambda _: bits),
    )
    outcome = run_selection(program, lambda bits: eff.unit(formula.evaluate(bits)))
    return list(outcome.log), outcome.value


# What a formula may answer: bools, the ints 0 and 1 that equal them, and
# values that equal neither (2, "", None).
_ANSWERS = {
    "bool": (False, True),
    "int": (0, 1),
    "mixed": (False, True, 0, 1, 2, "", None),
}


def _seeded_formulas(seed: int, count: int) -> list[tuple[str, BooleanFormula]]:
    """Random tables over the truth of each bit, 1-8 variables; the bool
    tables run from unsatisfiable (density 0) to dense."""
    rng = random.Random(seed)
    formulas = []
    for index in range(count):
        arity = rng.randint(1, 8)
        kind = ("bool", "int", "mixed")[index % 3]
        if kind == "bool":
            density = rng.choice((0.0, 0.0, 0.01, 0.1, 0.5))
            table = [rng.random() < density for _ in range(2**arity)]
        else:
            table = rng.choices(_ANSWERS[kind], k=2**arity)

        def evaluate(bits, table=table):
            return table[sum(1 << i for i, bit in enumerate(bits) if bit)]

        formulas.append((kind, BooleanFormula(arity, evaluate)))
    return formulas


def _assert_sat_callcc_matches_the_reference(seed: int = 0, count: int = 300) -> None:
    kinds = {"bool-unsat": 0, "bool-sat": 0, "int": 0, "mixed": 0}
    for kind, formula in _seeded_formulas(seed, count):
        log, bits = sat_callcc(formula)
        want_log, want_bits = _reference_sat_callcc(formula)
        assert log == want_log, (formula.arity, kind)
        # By identity: 1 == True, so equality would not see a swapped value.
        assert len(bits) == len(want_bits) and all(map(lambda a, b: a is b, bits, want_bits))
        if kind == "bool":
            kind += "-sat" if sat_oracle(formula) is not None else "-unsat"
        kinds[kind] += 1
    assert min(kinds.values()) >= 40, kinds


class TestSatCallccAgainstTheReference:
    """The search builds its fixed stages once; its logs and answers must be
    those of the program that rebuilt them on every continuation call."""

    def test_seeded_formulas_log_and_answer_as_the_reference(self):
        _assert_sat_callcc_matches_the_reference()

    def test_the_int_valued_formula_matches_the_reference(self):
        assert sat_callcc(_INT_VALUED) == _reference_sat_callcc(_INT_VALUED)

    def test_reusing_the_bool_stages_for_0_and_1_is_caught(self, monkeypatch):
        by_equality = source_mutant(
            search._sat_callcc_outcome,
            ("if b is True:", "if b == True:"),
            ("if b is False:", "if b == False:"),
        )
        monkeypatch.setattr(search, "_sat_callcc_outcome", by_equality)
        with pytest.raises(AssertionError):
            _assert_sat_callcc_matches_the_reference()

    def test_logging_the_dummy_call_before_the_probe_line_is_caught(self, monkeypatch):
        swapped = source_mutant(
            search._sat_callcc_outcome,
            ('(f"b = {b}, ",) + resumed.log', 'resumed.log + (f"b = {b}, ",)'),
        )
        monkeypatch.setattr(search, "_sat_callcc_outcome", swapped)
        with pytest.raises(AssertionError):
            _assert_sat_callcc_matches_the_reference()


def _evaluated(plain: BooleanFormula) -> tuple[BooleanFormula, list]:
    """The same formula, recording the assignment of each evaluation."""
    seen: list = []

    def evaluate(bits):
        seen.append(bits)
        return plain.evaluate(bits)

    return BooleanFormula(plain.arity, evaluate), seen


class TestSatCallccEvaluationCounts:
    """The reified call of the search's continuation at the dummy runs the
    formula once, however often the probes run it.  So the formula runs
    once per genuine call and once at the dummy: 2^n times on an
    unsatisfiable formula, where running it on every run made 3 * (2^n - 1)."""

    @pytest.mark.parametrize("arity", [1, 5, 12])
    def test_unsatisfiable_formula_makes_exactly_two_to_the_n(self, arity):
        formula, calls = _counting(BooleanFormula(arity, lambda _: False))
        log, bits = sat_callcc(formula)
        assert bits == (False,) * arity
        assert calls[0] == 2**arity
        # 2^(n+1) - 2 calls at the dummy, one after each probe line, and the
        # answer's line for the all-False assignment.
        assert log.count(_call_line(format_assignment(bits))) == 2 ** (arity + 1) - 1

    def test_the_unshared_reference_runs_the_formula_at_every_dummy_call(self):
        formula, calls = _counting(BooleanFormula(5, lambda _: False))
        assert _reference_sat_callcc(formula) == sat_callcc(BooleanFormula(5, lambda _: False))
        assert calls[0] == 3 * (2**5 - 1)

    def test_the_formula_sees_the_reference_assignments_with_the_dummy_once(self):
        # ``sel_sequence``'s memo inside the search logs a reused run's lines
        # twice, so a satisfiable formula has fewer genuine calls than
        # genuine lines; the formula sees what the unshared reference shows
        # it, in the same order, but the dummy only once, first.
        shrunk = 0
        for _, plain in _seeded_formulas(7, 120):
            formula, seen = _evaluated(plain)
            reference, seen_by_reference = _evaluated(plain)
            log, _ = sat_callcc(formula)
            assert log == _reference_sat_callcc(reference)[0]
            dummy, reference_dummy = seen[0], seen_by_reference[0]
            assert dummy == (False,) * plain.arity
            genuine = seen[1:]
            assert all(bits is not dummy for bits in genuine)
            assert genuine == [bits for bits in seen_by_reference if bits is not reference_dummy]
            # A call at the dummy follows each probe line, and 2^n lines are
            # genuine calls or the answer's; the formula runs at most that often.
            after_probes = [line for prev, line in zip(log, log[1:]) if prev.startswith("b = ")]
            assert set(after_probes) == {_call_line(format_assignment(dummy))}
            assert len(after_probes) == 2 ** (plain.arity + 1) - 2
            assert len(log) - 2 * len(after_probes) == 2**plain.arity >= len(seen)
            shrunk += len(seen) < 2**plain.arity
        assert shrunk >= 20, shrunk

    def test_the_lifted_answer_is_the_logged_line_mapped_to_the_assignment(self):
        rng = random.Random(23)
        eff = trace_effect()
        for _ in range(300):
            bits = tuple(rng.choices(_ANSWERS["mixed"], k=rng.randint(1, 8)))
            line = _call_line(format_assignment(bits))
            lifted = sel_lift(TraceValue((line,), bits), eff)
            mapped = sel_map(sel_lift(tell(line), eff), lambda _, bits=bits: bits)
            weight = rng.randrange(3)
            calls = []

            def k(xs):
                calls.append(xs)
                return TraceValue(("k",) * weight, len(xs) + weight)

            got = run_selection(lifted, k)
            assert got == run_selection(mapped, k)
            assert got.value is bits
            # Neither calls its continuation, so neither is run again when bound.
            assert calls == []
            assert run_quantifier(to_quantifier(lifted), k) == run_quantifier(
                to_quantifier(mapped), k
            )


class TestTheLiftedProbeStep:
    """``sat_callcc``'s step after a probe, the line and then the reified call
    at the dummy, which reads no continuation, is one lifted trace value."""

    def test_it_answers_as_the_probe_line_bound_into_the_mapped_call(self):
        rng = random.Random(27)
        eff = trace_effect()
        lines = ("k", _call_line("[False]"), "")
        for _ in range(300):
            resumed = TraceValue(
                tuple(rng.choices(lines, k=rng.randint(0, 3))), rng.choice(_ANSWERS["mixed"])
            )
            resume = sel_lift(resumed, eff)
            b = rng.choice((True, False, 0, 1, 2, None))
            line = _probe_line(b)
            lifted = sel_lift(TraceValue((line,) + resumed.log, b), eff)
            bound = sel_bind(sel_lift(tell(line), eff), lambda _, b=b: sel_map(resume, lambda _: b))
            weight = rng.randrange(3)
            calls = []

            def k(x):
                calls.append(x)
                return TraceValue(("k",) * weight, weight)

            got = run_selection(lifted, k)
            assert got == run_selection(bound, k)
            assert got.value is b
            assert calls == []
            assert run_quantifier(to_quantifier(lifted), k) == run_quantifier(
                to_quantifier(bound), k
            )
            # As a per-variable stage, each calls the continuation alike.
            stages = [sel_bind(bool_probe(eff), lambda _, s=step: s) for step in (lifted, bound)]
            runs = []
            for stage in stages:
                calls.clear()
                runs.append((run_selection(stage, k), list(calls)))
            assert runs[0] == runs[1]


def _counted_search(monkeypatch) -> collections.Counter:
    """Make ``sat_callcc`` count its trace binds and maps, through an effect
    with the trace effect's unit, bind and map, and its probes' chooser runs."""
    counts: collections.Counter = collections.Counter()
    base = trace_effect()

    def bind(m, f):
        counts["binds"] += 1
        return base.bind(m, f)

    def map_(m, g):
        counts["maps"] += 1
        return base.map(m, g)

    counting = EffectInstance(base.name, base.unit, bind, map_)

    def probe(eff=None):
        chooser = bool_probe(eff).chooser

        def counted(k):
            counts["probe runs"] += 1
            return chooser(k)

        return SelectionComputation(counted, eff)

    monkeypatch.setattr(search, "trace_effect", lambda: counting)
    monkeypatch.setattr(search, "bool_probe", probe)
    return counts


class TestSatCallccWorkCounts:
    """Exact counts of the search's work on an unsatisfiable formula, which
    do not depend on the machine.  With the step after a probe as one lifted
    trace value, ``0&!0`` at n variables makes 4 * 2^n - 3 trace binds,
    2^(n-1) maps and 2^n - 1 probe runs; binding the probe line into a map
    of the dummy call on every run made 6 * 2^n - 5 binds and 5 * 2^(n-1) - 2
    maps (1,531 and 638 at 8 variables), with the same probe runs."""

    def test_an_unsatisfiable_formula_at_eight_variables(self, monkeypatch):
        formula = parse_formula("0&!0", 8)
        plain = sat_callcc(formula)
        counts = _counted_search(monkeypatch)
        assert sat_callcc(formula) == plain
        assert counts == {"binds": 1021, "maps": 128, "probe runs": 255}
        assert len(plain[0]) == 5 * 2**8 - 4

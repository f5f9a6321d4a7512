"""Tests for the probe selection and the three SAT entry points."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selcc import (
    BooleanFormula,
    bool_probe,
    format_assignment,
    run_selection,
    sat_callcc,
    sat_oracle,
    sat_product,
    sel_sequence,
)

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
    """Exact formula-evaluation counts.  ``sat_product`` re-runs each chosen
    branch, so its cost is 2^n - 1 for every formula; the memoised product
    of the same probes stops early on satisfiable ones."""

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

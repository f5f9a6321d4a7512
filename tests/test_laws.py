"""Tests for the law-suite machinery and the cheaper differential suites.

The exhaustive monad-law sweeps (every chooser and continuation over
two-point carriers) are checked with the real binds, against their case
counts and time budget, in the acceptance module.  Here their driver, and the
driver of the base-effect laws, are fed deliberately broken binds to show
that they report failures; this module also covers every other suite and the
reporting contract.
"""
from __future__ import annotations

from selcc import (
    LawReport,
    QuantifierComputation,
    SelectionComputation,
    agent_partition_reports,
    backward_induction_reports,
    effect_law_reports,
    morphism_reports,
    quant_unit,
    randomized_monad_reports,
    run_quantifier,
    run_selection,
    sat_correctness_report,
    sel_unit,
    sum_equilibria_report,
)
from selcc.effects import (
    EffectInstance,
    NondetValue,
    TraceValue,
    _dedup,
    nondet_effect,
    trace_effect,
)
from selcc.laws import (
    _effect_laws,
    _exhaustive_reports,
    _nondet_effect_laws,
    _table_quantifiers,
    _table_selections,
    _trace_values,
)


class TestLawReport:
    def test_passes_without_failures(self):
        assert LawReport("x", 10, 0).passed
        assert not LawReport("x", 10, 1).passed

    def test_empty_suite_counts_as_passed(self):
        assert LawReport("x", 0, 0).passed


class TestEffectLaws:
    def test_all_instances_satisfy_the_monad_laws(self):
        # Exact counts, so a faster driver cannot shrink the case space
        # unnoticed: identity over carriers <= 3, trace over carriers <= 3
        # with logs of at most one line, nondet exhaustive over carriers <= 2
        # (4,241 cases) plus 2,000 randomized carrier-3 samples of 3 laws.
        for seed in (0, 3):
            reports = effect_law_reports(seed=seed)
            assert [(r.cases, r.failures) for r in reports] == [
                (4664, 0), (447600, 0), (10241, 0),
            ], seed

    def test_every_instance_is_covered(self):
        names = " ".join(r.name for r in effect_law_reports(seed=0)).lower()
        for instance in ("identity", "trace", "nondet"):
            assert instance in names


def _drops_the_log_of_m(m, f):
    """A broken trace bind: only ``f``'s log survives."""
    return f(m.value)


def _repeats_the_log_of_m(m, f):
    """A broken trace bind: ``m``'s log is written before and after ``f``'s."""
    out = f(m.value)
    return TraceValue(m.log + out.log + m.log, out.value)


def _walks_alternatives_in_reverse(m, f):
    """A broken nondet bind: ``m``'s alternatives are visited last to first."""
    collected = []
    for alt in reversed(m.alternatives):
        collected.extend(f(alt).alternatives)
    return NondetValue(_dedup(tuple(collected)))


class TestEffectLawsCatchBrokenBinds:
    # The counts agree with a direct sweep that runs all four binds of every
    # associativity case through the broken bind.  Two other plausible
    # mistakes are lawful monads, so no law suite can catch them: logs
    # concatenated right-then-left (the writer monad over the opposite
    # monoid) and a nondet bind without dedup (the list monad).
    def test_trace_bind_dropping_the_log_of_m(self):
        broken = EffectInstance("Trace", trace_effect().unit, _drops_the_log_of_m)
        # Right unit fails once per one-line m and carrier triple.
        assert _effect_laws(broken, _trace_values, (1, 2, 3)) == (447600, 54)

    def test_trace_bind_repeating_the_log_of_m(self):
        broken = EffectInstance("Trace", trace_effect().unit, _repeats_the_log_of_m)
        # Right unit gives 54 of these; the rest are associativity cases.
        assert _effect_laws(broken, _trace_values, (1, 2, 3)) == (447600, 222318)

    def test_nondet_bind_walking_alternatives_in_reverse(self):
        broken = EffectInstance("Nondet", nondet_effect().unit, _walks_alternatives_in_reverse)
        assert _nondet_effect_laws(0, eff=broken) == (10241, 2130)


def _scores_every_candidate_against_f0(eps, f):
    """A broken ``sel_bind``: candidates are scored by running ``f(0)``."""
    bind_m = eps.effect.bind

    def chooser(k):
        def extended(x):
            return bind_m(f(0).chooser(k), k)

        def chosen(x):
            return f(x).chooser(k)

        return bind_m(eps.chooser(extended), chosen)

    return SelectionComputation(chooser, eps.effect)


def _sends_k_a_wrong_value(phi, f):
    """A broken ``quant_bind``: for every candidate but 0, ``k`` gets 0 in
    place of the value ``f(x)`` passes on."""

    def runner(k):
        def extended(x):
            return f(x).runner(k if x == 0 else lambda y: k(0))

        return phi.runner(extended)

    return QuantifierComputation(runner, phi.effect)


class TestExhaustiveMonadLawsCatchBrokenBinds:
    # (cases, failures) per law, in report order: left unit, right unit,
    # associativity.  The failure counts agree with a direct sweep that runs
    # both sides of every case through the broken bind.
    def test_selection_bind_scoring_against_f0(self):
        reports = _exhaustive_reports(
            "selection", sel_unit, _scores_every_candidate_against_f0,
            run_selection, _table_selections,
        )
        assert [(r.cases, r.failures) for r in reports] == [
            (2131, 0), (69, 16), (4220093, 131072),
        ]

    def test_quantifier_bind_sending_k_a_wrong_value(self):
        reports = _exhaustive_reports(
            "quantifier", quant_unit, _sends_k_a_wrong_value,
            run_quantifier, _table_quantifiers,
        )
        assert [(r.cases, r.failures) for r in reports] == [
            (2190, 256), (74, 16), (4412552, 672768),
        ]


class TestMorphismLaws:
    def test_structure_is_preserved(self):
        reports = morphism_reports()
        assert len(reports) == 3
        for report in reports:
            assert report.passed, report.name

    def test_probe_property_covers_all_four_predicates(self):
        probe = [r for r in morphism_reports() if "probe" in r.name]
        assert len(probe) == 1
        assert probe[0].cases == 4


class TestRandomizedMonadLaws:
    def test_both_monads_and_effects_pass_at_reduced_sample_count(self):
        reports = randomized_monad_reports(seed=2, samples=250)
        assert len(reports) == 12
        for report in reports:
            assert report.cases == 250, report.name
            assert report.passed, report.name

    def test_reports_are_deterministic_for_a_fixed_seed(self):
        first = randomized_monad_reports(seed=5, samples=120)
        second = randomized_monad_reports(seed=5, samples=120)
        assert first == second

    def test_different_seeds_are_still_law_abiding(self):
        for report in randomized_monad_reports(seed=99, samples=60):
            assert report.passed, report.name


class TestAgentPartition:
    def test_conformists_and_contrarians_split_every_domain(self):
        for report in agent_partition_reports():
            assert report.passed, report.name
            assert report.cases > 0


class TestSearchCorrectness:
    def test_product_agrees_with_the_oracle_on_every_truth_table(self):
        report = sat_correctness_report(max_arity=3)
        # all truth tables of one, two and three variables
        assert report.cases == 4 + 16 + 256
        assert report.passed


class TestGameSuites:
    def test_backward_induction_differentials_pass(self):
        exhaustive, randomized = backward_induction_reports(seed=1, samples=80)
        assert exhaustive.cases == 256
        assert exhaustive.passed
        assert randomized.cases == 80
        assert randomized.passed

    def test_backward_induction_reports_are_deterministic(self):
        assert backward_induction_reports(seed=3, samples=50) == (
            backward_induction_reports(seed=3, samples=50)
        )

    def test_equilibrium_sweep_covers_every_small_game(self):
        report = sum_equilibria_report()
        assert report.cases == 6561
        assert report.passed

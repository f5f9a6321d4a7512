"""Tests for the law-suite machinery and the cheaper differential suites.

The exhaustive monad-law sweeps (every chooser and continuation over
two-point carriers) are checked with the real binds, against their case
counts and time budget, in the acceptance module.  The same three sweeps
check the base effects' laws; here they are compared with a direct sweep
that interns nothing, on the base effects' real binds and on broken ones.
Both the exhaustive and the randomized drivers are fed deliberately broken
binds to show that they report failures; this module also covers every
other suite and the reporting contract.
"""
from __future__ import annotations

import itertools
import random

import pytest

from selcc import (
    LawReport,
    QuantifierComputation,
    SelectionComputation,
    agent_partition_reports,
    backward_induction_reports,
    effect_law_reports,
    morphism_reports,
    randomized_monad_reports,
    run_all,
    run_selection,
    sat_correctness_report,
    sel_bind,
    sel_map,
    sel_product,
    sel_sequence,
    sel_unit,
    sum_equilibria_report,
)
from selcc.core import QUANTIFIER, SELECTION
from selcc.effects import (
    EffectInstance,
    NondetValue,
    TraceValue,
    _dedup,
    identity_effect,
    nondet_effect,
    trace_effect,
)
from selcc.laws import (
    _continuations,
    _effect_laws,
    _exhaustive_reports,
    _nondet_effect_laws,
    _nondet_sequences,
    _randomized_monad_failures,
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


def _direct_effect_laws(eff, values, sizes):
    """The reference for ``_effect_laws``: the same cases, swept by plain
    loops that run every bind of every case and intern nothing."""
    bind, unit = eff.bind, eff.unit
    cases = failures = 0
    for n_a, n_b, n_c in itertools.product(sizes, repeat=3):
        ms = values(n_a)
        fs = [f.__getitem__ for f in itertools.product(values(n_b), repeat=n_a)]
        gs = [g.__getitem__ for g in itertools.product(values(n_c), repeat=n_b)]
        for a in range(n_a):
            for f in fs:
                cases += 1
                failures += bind(unit(a), f) != f(a)
        for m in ms:
            cases += 1
            failures += bind(m, unit) != m
        for m in ms:
            for f in fs:
                for g in gs:
                    cases += 1
                    failures += bind(bind(m, f), g) != bind(m, lambda a: bind(f(a), g))
    return cases, failures


def _nondet_values(n):
    return _nondet_sequences(range(n))


class TestEffectLawsAgreeWithADirectSweep:
    @pytest.mark.parametrize(
        "eff, values, sizes, expected",
        [
            (identity_effect(), range, (1, 2, 3), (4664, 0)),
            (trace_effect(), _trace_values, (1, 2), (1676, 0)),
            (nondet_effect(), _nondet_values, (1, 2), (4241, 0)),
            (
                EffectInstance("Trace", trace_effect().unit, _drops_the_log_of_m),
                _trace_values, (1, 2), (1676, 12),
            ),
            (
                EffectInstance("Trace", trace_effect().unit, _repeats_the_log_of_m),
                _trace_values, (1, 2), (1676, 792),
            ),
            (
                EffectInstance("Nondet", nondet_effect().unit, _walks_alternatives_in_reverse),
                _nondet_values, (1, 2), (4241, 104),
            ),
            (
                EffectInstance("Identity", identity_effect().unit, lambda m, f: f(0)),
                range, (1, 2, 3), (4664, 183),
            ),
        ],
        ids=[
            "identity", "trace", "nondet", "trace-dropping-the-log-of-m",
            "trace-repeating-the-log-of-m", "nondet-walking-in-reverse",
            "identity-binding-0",
        ],
    )
    def test_same_cases_and_failures(self, eff, values, sizes, expected):
        assert _direct_effect_laws(eff, values, sizes) == expected
        assert _effect_laws(eff, values, sizes) == expected


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
            SELECTION._replace(bind=_scores_every_candidate_against_f0), _table_selections
        )
        assert [(r.cases, r.failures) for r in reports] == [
            (2131, 0), (69, 16), (4220093, 131072),
        ]

    def test_quantifier_bind_sending_k_a_wrong_value(self):
        reports = _exhaustive_reports(
            QUANTIFIER._replace(bind=_sends_k_a_wrong_value), _table_quantifiers
        )
        assert [(r.cases, r.failures) for r in reports] == [
            (2190, 256), (74, 16), (4412552, 672768),
        ]


def _drops_the_second_pass(eps, f):
    """A broken ``sel_bind`` over the trace effect: the chosen ``x`` still
    runs through ``f`` a second time, but that run's log is dropped."""
    bind_m = eps.effect.bind

    def chooser(k):
        def extended(x):
            return bind_m(f(x).chooser(k), k)

        def chosen(x):
            return TraceValue((), f(x).chooser(k).value)

        return bind_m(eps.chooser(extended), chosen)

    return SelectionComputation(chooser, eps.effect)


class TestRandomizedMonadLawsCatchBrokenBinds:
    # (cases, failures) per law: left unit, right unit, associativity.  The
    # counts agree with the same seeded sweep run with ``laws.sel_bind``
    # replaced by the broken bind.  Right unit cannot see this fault: the
    # second pass of bind(eps, unit) has an empty log.
    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, [(1000, 703), (1000, 0), (1000, 469)]),
            (3, [(1000, 724), (1000, 0), (1000, 489)]),
        ],
    )
    def test_selection_bind_dropping_the_second_pass(self, seed, expected):
        broken = SELECTION._replace(bind=_drops_the_second_pass)
        assert [
            _randomized_monad_failures(broken, trace_effect(), law, seed, 1000)
            for law in ("left unit", "right unit", "associativity")
        ] == expected


# ---------------------------------------------------------------------------
# Functor laws of sel_map, over every table selection and continuation at
# carrier sizes up to 2.  Tables are identity-effect selections; the trace
# and nondet versions wrap them so that the effect's value depends on the
# choice.
# ---------------------------------------------------------------------------

_SIZES = (1, 2)


def _traced(eps):
    """A trace selection that chooses like ``eps`` and logs its choice after
    the continuation's log at that choice."""

    def chooser(k):
        x = eps.chooser(lambda x: k(x).value)
        return TraceValue(k(x).log + (f"chose {x}",), x)

    return SelectionComputation(chooser, trace_effect())


def _branching(eps):
    """A nondet selection that chooses like ``eps`` and also offers 0."""

    def chooser(k):
        x = eps.chooser(lambda x: k(x).alternatives[0])
        return NondetValue(tuple(dict.fromkeys((x, 0))))

    return SelectionComputation(chooser, nondet_effect())


# name -> (wrap a table selection, wrap a table continuation).  Continuation
# results are duplicate-free, as NondetValue requires.
_EFFECTS = {
    "identity": (lambda eps: eps, lambda c: c),
    "trace": (_traced, lambda c: lambda y: TraceValue((f"k {y}",), c(y))),
    "nondet": (
        _branching,
        lambda c: lambda y: NondetValue(tuple(dict.fromkeys((c(y), 0)))),
    ),
}


def _carriers(effect):
    """Per carrier size pair ``(n, r)``: ``n``, ``r`` and the wrapped
    selections over ``range(n)`` with results in ``range(r)``."""
    wrap = _EFFECTS[effect][0]
    for n, r in itertools.product(_SIZES, repeat=2):
        yield n, r, [wrap(eps) for eps in _table_selections(n, r)]


def _functor_law_counts(effect, smap):
    """(cases, failures) per law for the map ``smap``: identity, composition,
    and agreement with ``sel_bind`` into ``sel_unit``."""
    counts = {"identity": [0, 0], "composition": [0, 0], "bind into unit": [0, 0]}

    def check(law, lhs, rhs, conts):
        for k in conts:
            counts[law][0] += 1
            counts[law][1] += run_selection(lhs, k) != run_selection(rhs, k)

    wrap_k = _EFFECTS[effect][1]
    for n, r, selections in _carriers(effect):
        conts = [wrap_k(c) for c in _continuations(n, r)]
        maps = [table.__getitem__ for table in itertools.product(range(n), repeat=n)]
        for eps in selections:
            check("identity", smap(eps, lambda x: x), eps, conts)
            for g in maps:
                unit_g = lambda x, g=g: sel_unit(g(x), eps.effect)
                check("bind into unit", smap(eps, g), sel_bind(eps, unit_g), conts)
                for h in maps:
                    composed = lambda x, g=g, h=h: h(g(x))
                    check("composition", smap(smap(eps, g), h), smap(eps, composed), conts)
    return {law: tuple(pair) for law, pair in counts.items()}


def _scores_the_candidate_itself(eps, g):
    """A broken ``sel_map``: candidates are scored by ``k(x)``, not ``k(g(x))``."""
    eff = eps.effect

    def chooser(k):
        return eff.bind(eps.chooser(k), lambda x: eff.unit(g(x)))

    return SelectionComputation(chooser, eff)


class TestSelMapFunctorLaws:
    # Cases, the same for every effect: one per selection and continuation
    # (identity), times each endomap g (bind into unit), times each pair of
    # endomaps g, h (composition).  Carrier pairs (n, r) of (1, 1), (1, 2),
    # (2, 1) and (2, 2) give 1, 1, 2 and 16 selections, 1, 2, 1 and 4
    # continuations and 1, 1, 4 and 4 endomaps.
    CASES = {"identity": 69, "composition": 1059, "bind into unit": 267}

    @pytest.mark.parametrize("effect", sorted(_EFFECTS))
    def test_sel_map_is_a_functor_and_a_bind_into_unit(self, effect):
        counts = _functor_law_counts(effect, sel_map)
        assert counts == {law: (cases, 0) for law, cases in self.CASES.items()}

    @pytest.mark.parametrize(
        "effect, failures", [("identity", 16), ("nondet", 16), ("trace", 148)]
    )
    def test_a_map_scoring_the_candidate_itself_fails(self, effect, failures):
        # Identity and composition cannot see this fault (both sides score
        # every candidate by itself); agreement with the bind does.  Trace
        # fails more often because the continuation's log reaches the result.
        counts = _functor_law_counts(effect, _scores_the_candidate_itself)
        assert counts == {
            "identity": (self.CASES["identity"], 0),
            "composition": (self.CASES["composition"], 0),
            "bind into unit": (self.CASES["bind into unit"], failures),
        }

    @pytest.mark.parametrize("effect", sorted(_EFFECTS))
    def test_sel_product_equals_its_monadic_definition(self, effect):
        wrap_k = _EFFECTS[effect][1]
        cases = failures = 0
        for n, r, selections in _carriers(effect):
            conts = [
                wrap_k(lambda p, c=c.__getitem__, n=n: c(p[0] * n + p[1]))
                for c in itertools.product(range(r), repeat=n * n)
            ]
            for eps, delta in itertools.product(selections, repeat=2):
                monadic = sel_bind(
                    eps,
                    lambda x, d=delta: sel_bind(d, lambda y: sel_unit((x, y), d.effect)),
                )
                product = sel_product(eps, delta)
                for k in conts:
                    cases += 1
                    failures += run_selection(product, k) != run_selection(monadic, k)
        # Pairs of selections times continuations on pairs: 1 + 2 + 4 + 4,096.
        assert (cases, failures) == (4103, 0)


# ---------------------------------------------------------------------------
# sel_sequence against the iterated product as a fold of binary products,
# the reference it is an optimisation of.
# ---------------------------------------------------------------------------


def _fold_sequence(comps, rerun):
    """The iterated product as the right fold of binary products: each step
    binds its head and maps the rest of the product onto it."""
    result = sel_unit((), comps[0].effect)
    for comp in reversed(comps):
        result = sel_bind(
            comp, lambda x, rest=result: sel_map(rest, lambda xs: (x,) + xs), rerun=rerun
        )
    return result


def _broken_sequence(fault):
    """A prefix-passing product with one fault: ``"reversed prefix"`` puts
    each choice in front of the prefix, and ``"first run"`` answers every
    stage with the run of the first candidate it scored."""

    def sequence(comps, rerun):
        eff = comps[0].effect

        def run_from(i, prefix, k):
            if i == len(comps):
                return eff.unit(prefix)
            runs = {}

            def grow(x):
                return (x,) + prefix if fault == "reversed prefix" else prefix + (x,)

            def extended(x):
                inner = run_from(i + 1, grow(x), k)
                if not rerun:
                    runs[id(x)] = (x, inner)
                return eff.bind(inner, k)

            def chosen(x):
                run = runs.get(next(iter(runs), None) if fault == "first run" else id(x))
                return run[1] if run is not None else run_from(i + 1, grow(x), k)

            return eff.bind(comps[i].chooser(extended), chosen)

        return SelectionComputation(lambda k: run_from(0, (), k), eff)

    return sequence


def _sequence_cases(effect):
    """``(computations, continuation on tuples)`` for sequences of one to
    three table selections at carrier sizes up to 2: every sequence with
    every continuation where that makes at most 64 pairs, and otherwise 64
    pairs drawn with a fixed seed (at n = r = 2 with two or three stages,
    of 4,096 and 1,048,576)."""
    rng = random.Random(0)
    for n, r, selections in _carriers(effect):
        for length in (1, 2, 3):
            points = list(itertools.product(range(n), repeat=length))
            tables = list(itertools.product(range(r), repeat=len(points)))
            sequences = list(itertools.product(selections, repeat=length))
            if len(sequences) * len(tables) <= 64:
                pairs = itertools.product(sequences, tables)
            else:
                pairs = [(rng.choice(sequences), rng.choice(tables)) for _ in range(64)]
            for comps, table in pairs:
                yield comps, dict(zip(points, table)).__getitem__


def _observe(sequence, comps, k, rerun):
    """The result of ``sequence(comps, rerun)`` under ``k``, with the
    arguments of each continuation call in order and each stage's chooser
    runs."""
    calls, runs = [], [0] * len(comps)

    def counted(i, comp):
        def chooser(k):
            runs[i] += 1
            return comp.chooser(k)

        return SelectionComputation(chooser, comp.effect)

    def counted_k(xs):
        calls.append(xs)
        return k(xs)

    stages = [counted(i, comp) for i, comp in enumerate(comps)]
    return run_selection(sequence(stages, rerun), counted_k), calls, runs


def _sequence_failures(effect, sequence):
    """(cases, failures) of ``sequence`` against the fold, each case run
    with the memo and with ``rerun=True``."""
    wrap_k = _EFFECTS[effect][1]
    cases = failures = 0
    for comps, c in _sequence_cases(effect):
        k = wrap_k(c)
        for rerun in (False, True):
            cases += 1
            failures += _observe(sequence, comps, k, rerun) != _observe(
                _fold_sequence, comps, k, rerun
            )
    return cases, failures


class TestSelSequenceEqualsTheFold:
    # Per effect, pairs of sequences and continuations: (1 + 2 + 2 + 64)
    # with one stage, (1 + 2 + 4 + 64) with two and (1 + 2 + 8 + 64) with
    # three, each run with the memo and with rerun=True.
    CASES = 430

    @pytest.mark.parametrize("effect", sorted(_EFFECTS))
    def test_sel_sequence_equals_the_fold(self, effect):
        sequence = lambda comps, rerun: sel_sequence(comps, rerun=rerun)
        assert _sequence_failures(effect, sequence) == (self.CASES, 0)

    # A reversed prefix fails every case of two or more stages except the 12
    # at n = 1, where the tuple reads the same both ways.  The first run is
    # wrong only with the memo, and only where the chooser picks a candidate
    # other than the one it scored first.
    @pytest.mark.parametrize("effect", sorted(_EFFECTS))
    @pytest.mark.parametrize("fault, failures", [("reversed prefix", 280), ("first run", 155)])
    def test_a_broken_sequence_fails(self, fault, failures, effect):
        assert _sequence_failures(effect, _broken_sequence(fault)) == (self.CASES, failures)


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

    def test_negative_samples_are_rejected(self):
        for suite in (randomized_monad_reports, backward_induction_reports, run_all):
            with pytest.raises(ValueError, match="^samples must be at least 0$"):
                suite(0, -3)


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

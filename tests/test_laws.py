"""Tests for the law-suite machinery and the cheaper differential suites.

The exhaustive monad-law sweeps (every chooser and continuation over
two-point carriers) are checked with the real binds, against their case
counts and time budget, in the acceptance module.  The same three sweeps
check the base effects' laws; here they are compared with a direct sweep
that interns nothing, on the base effects' real binds and on broken ones.
Both the exhaustive and the randomized drivers are fed deliberately broken
binds to show that they report failures, and the morphism and equilibrium
suites a broken ``to_quantifier`` and ``sum_selections``, patched into the
names ``selcc.laws`` and ``selcc.games`` call, as the agent,
backward-induction and SAT suites are fed broken agents, players and
solvers; this module also covers every other suite, the reporting contract
and ``run_all``'s forked child.  Beyond ``selcc laws``, it checks the two
lift laws over each effect record's universe, pins the random stream of the
randomized sweeps' generator, and shows that one more effect record is swept
by both effect drivers.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

from selcc import (
    LawReport,
    QuantifierComputation,
    SelectionComputation,
    agent_partition_reports,
    argmax_selection,
    backward_induction_reports,
    effect_law_reports,
    fix_selection,
    morphism_reports,
    punk_selection,
    quantifier_monad_reports,
    randomized_monad_reports,
    run_all,
    run_selection,
    sat_correctness_report,
    sat_product,
    sel_bind,
    sel_map,
    sel_product,
    sel_sequence,
    sel_unit,
    selection_monad_reports,
    sum_equilibria_report,
)
from selcc import games, laws
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
    _digest,
    _effect_laws,
    _EffectLaws,
    _exhaustive_reports,
    _random_computation,
    _randomized_monad_failures,
    _table_computations,
    _table_fn,
)

# Each base effect's law record, by effect name.
_LAWS = {fixture.effect.name: fixture for fixture in laws._EFFECTS}


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


_trace_values = _LAWS["Trace"].values
_nondet_values = _LAWS["Nondet"].values


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
        assert _effect_laws(_EffectLaws(eff, "", values, sizes)) == expected


class TestEffectLawsCatchBrokenBinds:
    # The counts agree with a direct sweep that runs all four binds of every
    # associativity case through the broken bind.  Two other plausible
    # mistakes are lawful monads, so no law suite can catch them: logs
    # concatenated right-then-left (the writer monad over the opposite
    # monoid) and a nondet bind without dedup (the list monad).
    def test_trace_bind_dropping_the_log_of_m(self):
        broken = EffectInstance("Trace", trace_effect().unit, _drops_the_log_of_m)
        # Right unit fails once per one-line m and carrier triple.
        assert _effect_laws(_LAWS["Trace"]._replace(effect=broken)) == (447600, 54)

    def test_trace_bind_repeating_the_log_of_m(self):
        broken = EffectInstance("Trace", trace_effect().unit, _repeats_the_log_of_m)
        # Right unit gives 54 of these; the rest are associativity cases.
        assert _effect_laws(_LAWS["Trace"]._replace(effect=broken)) == (447600, 222318)

    def test_nondet_bind_walking_alternatives_in_reverse(self):
        broken = EffectInstance("Nondet", nondet_effect().unit, _walks_alternatives_in_reverse)
        assert _effect_laws(_LAWS["Nondet"]._replace(effect=broken), 0) == (10241, 2130)


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
        reports = _exhaustive_reports(SELECTION._replace(bind=_scores_every_candidate_against_f0))
        assert [(r.cases, r.failures) for r in reports] == [
            (2131, 0), (69, 16), (4220093, 131072),
        ]

    def test_quantifier_bind_sending_k_a_wrong_value(self):
        reports = _exhaustive_reports(QUANTIFIER._replace(bind=_sends_k_a_wrong_value))
        assert [(r.cases, r.failures) for r in reports] == [
            (2190, 256), (74, 16), (4412552, 672768),
        ]


class TestExhaustiveMonadSweepsBindOncePerMonad:
    # Real bind and run calls of one exhaustive sweep, with every other case
    # a table look-up.  Each distinct (computation, Kleisli map) pair is
    # bound once per monad, across all carrier sizes; runs are the
    # tabulations of the enumerated and the bound computations.
    @pytest.mark.parametrize(
        "monad, binds, runs",
        [(SELECTION, 4706, 18764), (QUANTIFIER, 5028, 19526)],
        ids=["selection", "quantifier"],
    )
    def test_real_binds_and_runs(self, monad, binds, runs):
        calls = {"bind": 0, "run": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        counted = monad._replace(bind=counting("bind", monad.bind), run=counting("run", monad.run))
        assert _exhaustive_reports(counted) == _exhaustive_reports(monad)
        assert calls == {"bind": binds, "run": runs}


class TestTableComputations:
    def test_only_carriers_of_one_and_two_points_are_enumerated(self):
        with pytest.raises(ValueError, match="not 3$"):
            _table_fn((0,) * 8, 3, 2)


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


def _keeps_the_first_alternative(eps, f):
    """A broken ``sel_bind`` over the nondet effect: the chosen ``x`` still
    runs through ``f`` a second time, but only that run's first alternative
    is kept."""
    bind_m = eps.effect.bind

    def chooser(k):
        def extended(x):
            return bind_m(f(x).chooser(k), k)

        def chosen(x):
            return NondetValue(f(x).chooser(k).alternatives[:1])

        return bind_m(eps.chooser(extended), chosen)

    return SelectionComputation(chooser, eps.effect)


def _randomized_counts(monad, fixture, seed):
    return [
        _randomized_monad_failures(monad, fixture, law, seed, 1000)
        for law in ("left unit", "right unit", "associativity")
    ]


class TestRandomizedMonadLawsCatchBrokenBinds:
    # (cases, failures) per law: left unit, right unit, associativity.  The
    # counts agree with the same seeded sweep run directly on the broken
    # bind.
    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, [(1000, 703), (1000, 0), (1000, 469)]),
            (3, [(1000, 724), (1000, 0), (1000, 489)]),
        ],
    )
    def test_selection_bind_dropping_the_second_pass(self, seed, expected):
        # Right unit cannot see this fault: the second pass of
        # bind(eps, unit) has an empty log.
        broken = SELECTION._replace(bind=_drops_the_second_pass)
        assert _randomized_counts(broken, _LAWS["Trace"], seed) == expected

    def test_nondet_selection_bind_keeping_the_first_alternative(self):
        # Right unit cannot see this fault: the second pass of
        # bind(eps, unit) has one alternative.
        broken = SELECTION._replace(bind=_keeps_the_first_alternative)
        assert _randomized_counts(broken, _LAWS["Nondet"], 0) == [
            (1000, 389), (1000, 0), (1000, 34),
        ]

    def test_nondet_quantifier_bind_sending_k_a_wrong_value(self):
        broken = QUANTIFIER._replace(bind=_sends_k_a_wrong_value)
        assert _randomized_counts(broken, _LAWS["Nondet"], 0) == [
            (1000, 131), (1000, 325), (1000, 160),
        ]


class TestEffectRecords:
    def test_a_fourth_record_is_swept_by_both_drivers(self, monkeypatch):
        # Adding an effect takes one record: here the trace record again,
        # under another name.
        trace = _LAWS["Trace"]
        again = dataclasses.replace(trace.effect, name="Trace again")
        monkeypatch.setattr(
            laws, "_EFFECTS", (*laws._EFFECTS, trace._replace(effect=again, report="trace again"))
        )
        effect_reports = effect_law_reports(seed=0)
        assert [(r.name, r.cases, r.failures) for r in effect_reports[2:]] == [
            ("nondet effect monad laws (exhaustive <=2 + randomized)", 10241, 0),
            ("trace again", 447600, 0),
        ]
        reports = randomized_monad_reports(seed=0, samples=40)
        assert len(reports) == 18
        assert all(r.passed and r.cases == 40 for r in reports)
        assert sum("(randomized, trace again)" in r.name for r in reports) == 6


def _stream_fingerprint(monad, fixture):
    """The sha256 of the results of ``fixture``'s first 200 random
    computations of ``monad``, each run on three continuation tables that
    are fixed per carrier size pair.  Any change to the order or the use of
    the generator's draws changes it."""
    name = fixture.effect.name
    rng = random.Random(f"stream-{monad.name}-{name}")
    tables_rng = random.Random(f"stream-tables-{name}")
    tables = {
        (n, r): [[fixture.value(tables_rng, tuple(range(r))) for _ in range(n)] for _ in range(3)]
        for n in (1, 2, 3)
        for r in (1, 2, 3)
    }
    memo = {}
    digest = hashlib.sha256()
    for i in range(200):
        n, r = 1 + i % 3, 1 + i // 3 % 3
        comp = _random_computation(monad, fixture, rng, tuple(range(n)), tuple(range(r)), memo)
        for table in tables[n, r]:
            digest.update(repr(monad.run(comp, table.__getitem__)).encode())
    return digest.hexdigest()


class TestRandomStream:
    # Taken from the two generators written per effect, before they became
    # one driver over the effect records.
    @pytest.mark.parametrize(
        "monad, effect, expected",
        [
            (SELECTION, "Trace",
             "0fba05fb47fdeeeaed20a9427fc594da05e75a4b908ca268e7275c2d8f2e06e8"),
            (SELECTION, "Nondet",
             "608a3ece1f6d8fac5f1ef9ff51b4f8ef69b1cc59a2b7d383668431e6b3ad9891"),
            (QUANTIFIER, "Trace",
             "2375f7c56ee6cf8de6593435b58c210d78f4cc317af91d5a481597e2af4858b8"),
            (QUANTIFIER, "Nondet",
             "01f2a8e404c6433254d8f7f0b0a3b2d42e0f44bd76e60241b3fd079becbaf293"),
        ],
        ids=["selection-trace", "selection-nondet", "quantifier-trace", "quantifier-nondet"],
    )
    def test_first_200_computations_are_pinned(self, monad, effect, expected):
        assert _stream_fingerprint(monad, _LAWS[effect]) == expected

    def test_a_reordered_draw_changes_the_fingerprint(self):
        trace = _LAWS["Trace"]

        def draws_the_log_later(monad, rng):
            rng.random()
            return trace.draw(monad, rng)

        broken = trace._replace(draw=draws_the_log_later)
        assert _stream_fingerprint(SELECTION, broken) != _stream_fingerprint(SELECTION, trace)


def _lift_law_counts(monad, fixture, lift):
    """(cases, failures) per law of ``lift``, a map from ``fixture``'s effect
    values into ``monad``: ``lift(unit a) == unit a`` and ``lift(bind(m, f))
    == bind(lift m, lift . f)``.  Over carriers of 1 and 2 points, ``m``
    ranges over the effect's universe, ``f`` over every table into it, and
    each side runs on every continuation tabulated into it."""
    eff, values = fixture.effect, fixture.values
    unit, bind, run = monad.unit, monad.bind, monad.run

    def conts(n, r):
        return [table.__getitem__ for table in itertools.product(values(r), repeat=n)]

    counts = {"unit": [0, 0], "bind": [0, 0]}

    def check(law, lhs, rhs, ks):
        for k in ks:
            counts[law][0] += 1
            counts[law][1] += run(lhs, k) != run(rhs, k)

    for n, r in itertools.product((1, 2), repeat=2):
        for a in range(n):
            check("unit", lift(eff.unit(a), eff), unit(a, eff), conts(n, r))
    for nx, ny, r in itertools.product((1, 2), repeat=3):
        ks = conts(ny, r)
        for m in values(nx):
            for table in itertools.product(values(ny), repeat=nx):
                f = table.__getitem__
                lifted_f = lambda x, f=f: lift(f(x), eff)
                check("bind", lift(eff.bind(m, f), eff), bind(lift(m, eff), lifted_f), ks)
    return {law: tuple(pair) for law, pair in counts.items()}


def _mixes_up_the_lifts(monad):
    """A broken lift for ``monad``, half the other monad's: a selection that
    also performs the continuation on its value, or a quantifier that
    answers with the effect value and ignores the continuation."""
    if monad is SELECTION:
        return lambda m, eff: SelectionComputation(
            lambda k: eff.bind(m, lambda x: eff.map(k(x), lambda _: x)), eff
        )
    return lambda m, eff: QuantifierComputation(lambda k: m, eff)


# Cases per effect: (unit, bind).
_LIFT_CASES = {"Identity": (13, 59), "Trace": (46, 1560), "Nondet": (65, 4083)}


class TestLiftLaws:
    # Checked here only: the pinned `selcc laws` transcript has no lift rows.
    @pytest.mark.parametrize("monad", [SELECTION, QUANTIFIER], ids=lambda m: m.name)
    @pytest.mark.parametrize("effect", ["Identity", "Trace", "Nondet"])
    def test_lift_is_a_monad_morphism(self, monad, effect):
        unit_cases, bind_cases = _LIFT_CASES[effect]
        assert _lift_law_counts(monad, _LAWS[effect], monad.lift) == {
            "unit": (unit_cases, 0), "bind": (bind_cases, 0),
        }

    # Failures per effect: (unit, bind).  Over the identity effect the
    # broken selection lift performs nothing more, so it is lawful there.  A
    # lift that performs its value twice is not caught at all: it breaks the
    # bind law only in the order of log lines, and the trace universe has
    # one line.
    @pytest.mark.parametrize(
        "monad, failures",
        [
            (SELECTION, {"Identity": (0, 0), "Trace": (23, 1170), "Nondet": (16, 0)}),
            (QUANTIFIER, {"Identity": (6, 28), "Trace": (34, 1164), "Nondet": (51, 2309)}),
        ],
        ids=["selection", "quantifier"],
    )
    def test_a_lift_mixing_up_the_monads_is_caught(self, monad, failures):
        broken = _mixes_up_the_lifts(monad)
        for effect, (unit_failures, bind_failures) in failures.items():
            unit_cases, bind_cases = _LIFT_CASES[effect]
            assert _lift_law_counts(monad, _LAWS[effect], broken) == {
                "unit": (unit_cases, unit_failures), "bind": (bind_cases, bind_failures),
            }, effect


def _reference_digest(value):
    """The digest as a chain of ``isinstance`` checks, recursing with no memo."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value % 9973
    if isinstance(value, str):
        return sum(ord(c) for c in value) % 9973
    if isinstance(value, tuple):
        total = 0
        for i, item in enumerate(value):
            total = (total * 31 + (i + 1) * _reference_digest(item)) % 9973
        return total
    if isinstance(value, TraceValue):
        return (_reference_digest(value.log) * 5 + _reference_digest(value.value)
                + len(value.log)) % 9973
    if isinstance(value, NondetValue):
        return (_reference_digest(value.alternatives) * 7 + len(value.alternatives)) % 9973
    raise TypeError(f"no digest for {type(value).__name__}")


def _random_digestible(rng, depth=0):
    kind = rng.randrange(7 if depth < 3 else 3)
    if kind == 0:
        return rng.random() < 0.5
    if kind == 1:
        return rng.choice((0, 1, -1, -9974, 9972, 9973, 9974, 10**12 + 7, -(10**12)))
    if kind == 2:
        return "".join(rng.choice("ab\u00e9\u2603") for _ in range(rng.randrange(4)))
    if kind == 3:
        return tuple(_random_digestible(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind == 4:
        log = tuple(f"t{rng.randrange(4)}" for _ in range(rng.randrange(3)))
        return TraceValue(log, _random_digestible(rng, depth + 1))
    if kind == 5:
        alternatives = [_random_digestible(rng, depth + 1) for _ in range(rng.randrange(4))]
        return NondetValue(tuple(alternatives))
    return rng.randrange(-20000, 20000)


class TestDigest:
    def test_equals_the_reference(self):
        rng = random.Random("digest")
        memo = {}
        values = [_random_digestible(rng) for _ in range(3000)]
        for value in values + values:  # the second pass reads the memo
            assert _digest(value, memo) == _reference_digest(value), value

    def test_subclasses_digest_as_their_first_base_in_the_chain(self):
        class Count(int):
            pass

        class Pair(tuple):
            pass

        for value in (Count(10_000), Pair((1, "a")), (Count(3), Pair(()))):
            assert _digest(value, {}) == _reference_digest(value)

    @pytest.mark.parametrize("bad", [1.5, [1], None], ids=["float", "list", "None"])
    def test_rejects_what_the_reference_rejects(self, bad):
        for value in (bad, (1, bad), TraceValue(("a",), bad), TraceValue(("a", bad), 0),
                      NondetValue((0, bad))):
            with pytest.raises(TypeError):
                _reference_digest(value)
            with pytest.raises(TypeError):
                _digest(value, {})


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
        yield n, r, [wrap(eps) for eps in _table_computations(SELECTION, n, r)]


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
    each choice in front of the prefix, ``"first run"`` answers every stage
    with the run of the first candidate it scored, and ``"last stage first
    candidate"`` answers the last stage with the unit at the first candidate
    it scored, with the memo and under ``rerun=True``."""

    def sequence(comps, rerun):
        eff = comps[0].effect

        def run_from(i, prefix, k):
            if i == len(comps):
                return eff.unit(prefix)
            runs, scored = {}, []

            def grow(x):
                return (x,) + prefix if fault == "reversed prefix" else prefix + (x,)

            def extended(x):
                inner = run_from(i + 1, grow(x), k)
                scored.append(x)
                if not rerun:
                    runs[id(x)] = (x, inner)
                return eff.bind(inner, k)

            def chosen(x):
                if fault == "last stage first candidate" and i == len(comps) - 1:
                    x = scored[0]
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
    # other than the one it scored first.  The last stage's first candidate
    # is wrong where the last chooser picks another one, 131 times with the
    # memo and 131 under rerun=True.
    @pytest.mark.parametrize("effect", sorted(_EFFECTS))
    @pytest.mark.parametrize(
        "fault, failures",
        [("reversed prefix", 280), ("first run", 155), ("last stage first candidate", 262)],
    )
    def test_a_broken_sequence_fails(self, fault, failures, effect):
        assert _sequence_failures(effect, _broken_sequence(fault)) == (self.CASES, failures)


class TestSelSequenceLastStage:
    # The last stage scores a candidate by k itself, not by binding a unit
    # into k, so a continuation that breaks NondetValue's duplicate-free
    # invariant reaches the last chooser with its duplicates, as in sel_map.
    @pytest.mark.parametrize("rerun", [False, True])
    def test_the_last_chooser_sees_k_s_own_value(self, rerun):
        eff = nondet_effect()
        seen = []

        def chooser(k):
            # Each candidate once per alternative of its score.
            scores = [(x, k(x)) for x in (0, 1)]
            seen.extend(score for _, score in scores)
            return NondetValue(tuple(x for x, score in scores for _ in score.alternatives))

        returned = []

        def k(xs):
            value = NondetValue((xs[-1], xs[-1]))
            returned.append(value)
            return value

        first = SelectionComputation(lambda k: NondetValue((7,)), eff)
        last = SelectionComputation(chooser, eff)
        answer = run_selection(sel_sequence([first, last], rerun=rerun), k)
        assert len(seen) == len(returned) == 2
        assert all(score is value for score, value in zip(seen, returned))
        assert answer == NondetValue(((7, 0), (7, 1)))


def _scores_every_candidate_at_0(eps):
    """A broken ``to_quantifier``: the chooser sees ``lambda x: k(0)``."""
    bind_m = eps.effect.bind

    def runner(k):
        return bind_m(eps.chooser(lambda x: k(0)), k)

    return QuantifierComputation(runner, eps.effect)


def _drops_the_column_check(eps, delta, x_domain, y_domain):
    """A broken ``sum_selections``: it keeps every pair whose row move is
    among the row player's choices, whatever the column player chooses."""

    def chooser(k):
        row_replies = [eps.chooser(lambda xp, y=y: k((xp, y))).alternatives for y in y_domain]
        return NondetValue(tuple(
            (x, y) for x in x_domain for y, row_reply in zip(y_domain, row_replies) if x in row_reply
        ))

    return SelectionComputation(chooser, eps.effect)


def _last_maximum_player(stage):
    """A broken argmax player: ties break to the last maximiser."""
    eff = identity_effect()

    def chooser(k):
        best, best_score = None, None
        for x in stage.moves:
            score = k(x)[stage.controller]
            if best is None or score >= best_score:
                best, best_score = x, score
        return eff.unit(best)

    return SelectionComputation(chooser, eff)


def _solve_with(player):
    """``backward_induction`` with ``player(stage)`` at every stage."""

    def solve(game):
        play = run_selection(sel_sequence([player(stage) for stage in game.stages]), game.payoff)
        return play, tuple(game.payoff(play))

    return solve


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

    def test_a_broken_morphism_fails(self, monkeypatch):
        # Unit cannot see this fault: sel_unit never calls its continuation.
        monkeypatch.setattr(laws, "to_quantifier", _scores_every_candidate_at_0)
        assert [(r.cases, r.failures) for r in morphism_reports()] == [
            (13, 0), (16495, 1024), (4, 2)
        ]


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


def _keeps_the_whole_domain(domain):
    """A broken ``fix_selection``: it keeps every element, fixpoint or not."""
    elements = tuple(domain)
    return SelectionComputation(lambda k: NondetValue(elements), nondet_effect())


class TestAgentPartition:
    def test_conformists_and_contrarians_split_every_domain(self):
        for report in agent_partition_reports():
            assert report.passed, report.name
            assert report.cases > 0

    def test_swapped_agents_fail(self, monkeypatch):
        # Swapped agents still split every domain; only the empty one passes.
        monkeypatch.setattr(laws, "fix_selection", punk_selection)
        monkeypatch.setattr(laws, "punk_selection", fix_selection)
        [report] = agent_partition_reports()
        assert (report.cases, report.failures) == (4124, 4123)

    def test_a_fix_agent_keeping_the_whole_domain_fails(self, monkeypatch):
        monkeypatch.setattr(laws, "fix_selection", _keeps_the_whole_domain)
        [report] = agent_partition_reports()
        assert (report.cases, report.failures) == (4124, 2782)


class TestSearchCorrectness:
    def test_product_agrees_with_the_oracle_on_every_truth_table(self):
        report = sat_correctness_report(max_arity=3)
        # all truth tables of one, two and three variables
        assert report.cases == 4 + 16 + 256
        assert report.passed

    @pytest.mark.parametrize(
        "solver, failures",
        [
            (lambda formula: (False,) * formula.arity, 135),
            (lambda formula: sat_product(formula)[:1] + (False,) * (formula.arity - 1), 124),
        ],
        ids=["always all-False", "only bit 0 of the product"],
    )
    def test_a_broken_solver_fails(self, monkeypatch, solver, failures):
        monkeypatch.setattr(laws, "sat_product", solver)
        report = sat_correctness_report(max_arity=3)
        assert (report.cases, report.failures) == (276, failures)


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

    def test_a_sum_without_the_column_check_fails(self, monkeypatch):
        monkeypatch.setattr(games, "sum_selections", _drops_the_column_check)
        report = sum_equilibria_report()
        assert (report.cases, report.failures) == (6561, 4698)

    @pytest.mark.parametrize(
        "player, failures",
        [
            (lambda stage: argmax_selection(stage.moves, key=lambda u: u[0]), (104, 245)),
            (_last_maximum_player, (192, 326)),
        ],
        ids=["every player maximises coordinate 0", "last-maximum tie-break"],
    )
    def test_broken_players_fail_backward_induction(self, monkeypatch, player, failures):
        monkeypatch.setattr(laws, "backward_induction", _solve_with(player))
        exhaustive, randomized = backward_induction_reports(seed=0, samples=1000)
        assert (exhaustive.cases, randomized.cases) == (256, 1000)
        assert (exhaustive.failures, randomized.failures) == failures


def _nine_suites(seed, samples):
    """The nine suites called one after another, in ``selcc laws`` order."""
    return [
        *effect_law_reports(seed),
        *selection_monad_reports(),
        *quantifier_monad_reports(),
        *randomized_monad_reports(seed, samples),
        *morphism_reports(),
        *agent_partition_reports(),
        sat_correctness_report(),
        *backward_induction_reports(seed, samples),
        sum_equilibria_report(),
    ]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cheap_suites(monkeypatch):
    """Stand in one-report fakes for the three exhaustive sweeps, which take
    most of the parent's side of a pass."""
    for name in ("effect_law_reports", "selection_monad_reports", "quantifier_monad_reports"):
        monkeypatch.setattr(laws, name, lambda *args, name=name: [LawReport(name, 1, 0)])


class TestRunAll:
    """``run_all`` runs the randomized sweeps in a forked child beside the
    other suites, or all of them here where it cannot fork."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_the_nine_suites_in_order(self, seed):
        expected = _nine_suites(seed, 50)
        assert len(expected) == 29
        assert run_all(seed, 50) == expected
        _assert_no_child_left()

    def test_serial_path_gives_the_same_reports(self, monkeypatch):
        expected = _nine_suites(3, 50)
        monkeypatch.delattr(os, "fork")
        assert run_all(3, 50) == expected

    def test_an_exception_in_the_child_is_raised_here(self, monkeypatch):
        def boom(seed, samples):
            raise ValueError("boom")

        _cheap_suites(monkeypatch)
        monkeypatch.setattr(laws, "randomized_monad_reports", boom)
        with pytest.raises(ValueError, match="^boom$"):
            run_all(0, 5)
        _assert_no_child_left()

    def test_a_child_that_sends_nothing_names_its_exit_status(self, monkeypatch):
        parent = os.getpid()

        def exits(seed, samples):
            if os.getpid() != parent:
                os._exit(3)
            raise AssertionError("the randomized sweeps ran in this process")

        _cheap_suites(monkeypatch)
        monkeypatch.setattr(laws, "randomized_monad_reports", exits)
        with pytest.raises(RuntimeError, match="status 3"):
            run_all(0, 5)
        _assert_no_child_left()

    def test_a_parent_side_failure_reaps_a_child_with_a_full_pipe(self, monkeypatch):
        # The child's result is far beyond a pipe buffer (64 KiB on Linux), so
        # it stays blocked on its write until the parent closes the read end.
        def fails(*args):
            raise KeyError("parent side")

        _cheap_suites(monkeypatch)
        monkeypatch.setattr(
            laws,
            "randomized_monad_reports",
            lambda seed, samples: [LawReport(f"{i:01000}", 1, 0) for i in range(1000)],
        )
        monkeypatch.setattr(laws, "sum_equilibria_report", fails)
        with pytest.raises(KeyError, match="parent side"):
            run_all(0, 5)
        _assert_no_child_left()

    def test_importing_selcc_loads_no_process_machinery(self):
        code = (
            "import sys, selcc\n"
            "print(sorted(m for m in ('pickle', 'multiprocessing', 'concurrent.futures') if m in sys.modules))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

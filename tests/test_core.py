"""Tests for the selection and quantifier computations and their combinators."""
from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selcc import (
    BooleanFormula,
    EffectInstance,
    NondetValue,
    QuantifierComputation,
    SelectionComputation,
    TraceValue,
    argmax_selection,
    identity_effect,
    invoke_coercion,
    nondet_argmax_selection,
    nondet_effect,
    quant_bind,
    quant_unit,
    run_quantifier,
    run_selection,
    sat_product,
    sel_bind,
    sel_lift,
    sel_product,
    sel_sequence,
    sel_unit,
    to_quantifier,
    trace_effect,
)
from selcc.games import SequentialGameSpec, Stage, backward_induction
from selcc.search import bool_probe

from helpers import leaves_out_calls, paper_sel_bind, source_mutant

_ID = identity_effect()


def _exists_bool() -> QuantifierComputation:
    """The boolean exists quantifier: runner(p) = p(True) or p(False)."""
    return QuantifierComputation(lambda p: p(True) or p(False), _ID)


class TestSelUnit:
    def test_continuation_is_ignored(self):
        assert run_selection(sel_unit(5), lambda x: x * x) == 5
        assert run_selection(sel_unit(True), lambda _: False) is True

    def test_continuation_is_never_invoked(self):
        calls = []

        def k(x):
            calls.append(x)
            return x

        run_selection(sel_unit(5), k)
        assert calls == []

    def test_trace_unit_performs_no_effects(self):
        eff = trace_effect()
        result = run_selection(sel_unit("a", eff), lambda x: eff.unit(x))
        assert result == TraceValue((), "a")


class TestQuantUnit:
    def test_applies_continuation_immediately(self):
        assert run_quantifier(quant_unit(3), lambda x: x + 1) == 4
        assert run_quantifier(quant_unit(True), lambda x: x) is True
        assert run_quantifier(quant_unit(2), lambda _: 0) == 0


class TestSelBind:
    def test_probe_then_negation(self):
        # chooser k = k(True), bound into F(x) = selection choosing k(not x),
        # run with the identity continuation.
        eps = bool_probe()
        f = lambda x: SelectionComputation(lambda k: k(not x), _ID)
        result = run_selection(sel_bind(eps, f), lambda b: b)

        # Independent direct substitution: the extended continuation sends x
        # to bind(F(x) run with k, k); the chosen x feeds back through F.
        def extended(x):
            return _ID.bind(f(x).chooser(lambda b: b), lambda b: b)

        chosen = eps.chooser(extended)
        expected = f(chosen).chooser(lambda b: b)
        assert result is True
        assert result == expected

    def test_left_unit_is_observational(self):
        f = lambda x: SelectionComputation(lambda k: k(not x), _ID)
        for k_table in itertools.product((False, True), repeat=2):
            k = lambda b, t=k_table: t[b]
            for a in (False, True):
                assert run_selection(sel_bind(sel_unit(a), f), k) == run_selection(
                    f(a), k
                )

    def test_right_unit_is_observational(self):
        eps = bool_probe()
        for k_table in itertools.product((False, True), repeat=2):
            k = lambda b, t=k_table: t[b]
            assert run_selection(sel_bind(eps, sel_unit), k) == run_selection(eps, k)

    @given(
        st.integers(min_value=0, max_value=2),
        st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
    )
    def test_left_unit_on_random_tables(self, a, chooser_table, k_table):
        f = lambda x: SelectionComputation(
            lambda k, x=x: chooser_table[(x + k(x)) % 3], _ID
        )
        k = lambda v: k_table[v % 3]
        assert run_selection(sel_bind(sel_unit(a), f), k) == run_selection(f(a), k)


class TestSelBindRunsEachBranchOnce:
    """Within one chooser call, the chosen branch is not run a second time."""

    @staticmethod
    def _counting_family():
        runs = []

        def f(x):
            def chooser(k):
                runs.append(x)
                return x

            return SelectionComputation(chooser, _ID)

        return f, runs

    @staticmethod
    def _score_true_then_choose(choice):
        def chooser(k):
            k(True)
            return choice

        return SelectionComputation(chooser, _ID)

    def test_a_scored_choice_is_reused(self):
        f, runs = self._counting_family()
        eps = self._score_true_then_choose(True)
        assert run_selection(sel_bind(eps, f), lambda b: b) is True
        assert runs == [True]

    def test_an_unscored_choice_still_runs(self):
        f, runs = self._counting_family()
        eps = self._score_true_then_choose(False)
        assert run_selection(sel_bind(eps, f), lambda b: b) is False
        assert runs == [True, False]

    def test_rerun_runs_the_chosen_branch_again(self):
        # The paper's bind, which the memo is measured against.
        f, runs = self._counting_family()
        eps = self._score_true_then_choose(True)
        assert run_selection(paper_sel_bind(eps, f), lambda b: b) is True
        assert runs == [True, True]

    @pytest.mark.parametrize("rerun, expected", [(False, [1, 1]), (True, [1, 1, 1])])
    def test_scoring_a_candidate_twice_runs_its_branch_twice(self, rerun, expected):
        # The memo serves only the chosen branch's second run: each scoring
        # call runs the branch again.  ``rerun`` runs the paper's bind.
        f, runs = self._counting_family()

        def chooser(k):
            k(1)
            k(1)
            return 1

        eps = SelectionComputation(chooser, _ID)
        bind = paper_sel_bind if rerun else sel_bind
        assert run_selection(bind(eps, f), lambda b: b) == 1
        assert runs == expected

    def test_the_memo_is_keyed_by_identity_not_equality(self):
        # 1 == True, but f tells them apart; an equality-keyed memo would
        # hand back the run for 1 and answer "int".
        def chooser(k):
            k(1)
            return True

        f = lambda x: sel_unit(type(x).__name__)
        eps = SelectionComputation(chooser, _ID)
        assert run_selection(sel_bind(eps, f), lambda name: name) == "bool"

    def test_the_memo_does_not_outlive_a_chooser_call(self):
        f, runs = self._counting_family()
        bound = sel_bind(self._score_true_then_choose(True), f)
        for _ in range(3):
            run_selection(bound, lambda b: b)
        assert runs == [True, True, True]


class TestQuantBind:
    def test_exists_then_negation(self):
        phi = _exists_bool()
        f = lambda x: quant_unit(not x)
        assert run_quantifier(quant_bind(phi, f), lambda b: b) is True

    def test_left_unit_is_observational(self):
        f = lambda x: quant_unit(not x)
        for a in (False, True):
            for k_table in itertools.product((False, True), repeat=2):
                k = lambda b, t=k_table: t[b]
                assert run_quantifier(quant_bind(quant_unit(a), f), k) == run_quantifier(
                    f(a), k
                )

    def test_right_unit_is_observational(self):
        phi = _exists_bool()
        for k_table in itertools.product((False, True), repeat=2):
            k = lambda b, t=k_table: t[b]
            assert run_quantifier(quant_bind(phi, quant_unit), k) == run_quantifier(
                phi, k
            )


class TestToQuantifier:
    def test_probe_with_identity_predicate(self):
        assert run_quantifier(to_quantifier(bool_probe()), lambda x: x) is True

    def test_probe_with_unsatisfiable_predicate(self):
        assert run_quantifier(to_quantifier(bool_probe()), lambda _: False) is False

    def test_preserves_unit(self):
        for x in (False, True):
            for k_table in itertools.product((False, True), repeat=2):
                k = lambda b, t=k_table: t[b]
                assert run_quantifier(to_quantifier(sel_unit(x)), k) == run_quantifier(
                    quant_unit(x), k
                )


class TestInvokeCoercion:
    def test_coercion_reuses_the_underlying_function(self):
        phi = quant_unit(4)
        assert invoke_coercion(phi).chooser is phi.runner

    def test_unit_round_trips_at_the_unit_continuation(self):
        assert run_selection(invoke_coercion(quant_unit(9)), _ID.unit) == 9
        round_trip = to_quantifier(invoke_coercion(quant_unit(4)))
        assert run_quantifier(round_trip, _ID.unit) == 4
        assert run_quantifier(quant_unit(4), _ID.unit) == 4

    def test_exists_becomes_a_selection(self):
        assert run_selection(invoke_coercion(_exists_bool()), lambda x: x) is True


class TestSelProduct:
    def test_probe_pair_finds_conjunction_witness(self):
        pair = sel_product(bool_probe(), bool_probe())
        assert run_selection(pair, lambda xy: xy[0] and xy[1]) == (True, True)

    def test_probe_pair_finds_mixed_witness(self):
        pair = sel_product(bool_probe(), bool_probe())
        assert run_selection(pair, lambda xy: xy[0] and not xy[1]) == (True, False)

    def test_units_compose(self):
        pair = sel_product(sel_unit("a"), sel_unit("b"))
        assert run_selection(pair, lambda _: 0) == ("a", "b")


class TestSelSequence:
    def test_empty_sequence_yields_empty_tuple(self):
        assert run_selection(sel_sequence([]), lambda _: 0) == ()

    def test_three_probes_solve_a_conjunction(self):
        probes = [bool_probe() for _ in range(3)]
        chosen = run_selection(
            sel_sequence(probes), lambda b: b[0] and not b[1] and b[2]
        )
        assert chosen == (True, False, True)

    def test_units_sequence_in_order(self):
        chosen = run_selection(sel_sequence([sel_unit(1), sel_unit(2)]), lambda _: 0)
        assert chosen == (1, 2)

    def test_matches_right_nested_products(self):
        probes = [bool_probe() for _ in range(3)]
        nested = sel_bind(
            bool_probe(),
            lambda x: sel_bind(
                sel_product(bool_probe(), bool_probe()),
                lambda yz: sel_unit((x,) + yz),
            ),
        )
        for table in itertools.product((False, True), repeat=8):
            k = lambda b, t=table: t[b[0] * 4 + b[1] * 2 + b[2]]
            assert run_selection(sel_sequence(probes), k) == run_selection(nested, k)

    def test_mixed_effects_are_rejected(self):
        computations = [sel_unit(1), sel_unit(2), sel_unit(3, trace_effect()), sel_unit(4)]
        with pytest.raises(ValueError, match="computation 2 has effect 'Trace'"):
            sel_sequence(computations)

    # All-tie games keep every move, so every branch is scored and chosen.
    # With the memo, (m^n - 1)/(m - 1) stage runs make one bind each for
    # their result, and every run but the top one, asked for its score,
    # makes one bind more: it binds its choice into the scores made while
    # choosing, where the fold bound its result into k again.  So k runs
    # once per leaf, m^n times.  Each last-stage run maps its choice: an
    # effect built without a map (the "derived" counts) makes that map one
    # bind, and the real nondet map (the "native" counts) makes it one map
    # and no bind.
    @pytest.mark.parametrize(
        "stages, moves, derived, native",
        [(4, 4, (169, 256), (105, 64, 256)), (6, 2, (125, 64), (93, 32, 64))],
        ids=["4x4-memo", "6x2-memo"],
    )
    def test_effect_binds_on_all_tie_games(self, stages, moves, derived, native):
        base = nondet_effect()
        counts = {"binds": 0, "maps": 0, "calls": 0}

        def bind(m, f):
            counts["binds"] += 1
            return base.bind(m, f)

        def map_(m, g):
            counts["maps"] += 1
            return base.map(m, g)

        def k(xs):
            counts["calls"] += 1
            return NondetValue((0,))

        def run(eff):
            counts.update(binds=0, maps=0, calls=0)
            players = [
                SelectionComputation(nondet_argmax_selection(range(moves)).chooser, eff)
                for _ in range(stages)
            ]
            chosen = run_selection(sel_sequence(players), k)
            assert chosen.alternatives == tuple(itertools.product(range(moves), repeat=stages))
            return counts["binds"], counts["maps"], counts["calls"]

        binds, calls = derived
        assert run(EffectInstance(base.name, base.unit, bind)) == (binds, 0, calls)
        assert run(EffectInstance(base.name, base.unit, bind, map_)) == native


def _probe_player(effect: str) -> SelectionComputation:
    """A player over moves 0-2 that scores move 0 alone and answers its
    score mod 3, so it may answer a move it never scored."""
    if effect == "nondet":
        chooser = lambda k: NondetValue(tuple(dict.fromkeys(v % 3 for v in k(0).alternatives)))
        return SelectionComputation(chooser, nondet_effect())
    if effect == "trace":
        eff = trace_effect()
        return SelectionComputation(lambda k: eff.unit(k(0).value % 3), eff)
    return SelectionComputation(lambda k: k(0) % 3, _ID)


def _nested_run_mismatches(sequence, effect: str, probe_middle: bool = False) -> tuple[int, int]:
    """Run ``sequence``'s three-stage argmax product over ``effect`` on
    moves 0-2 again from each call of the outer run's continuation, under an
    inner continuation that scores every play the other way round.  Returns
    the number of inner runs, and how many answers (the outer one and each
    inner one) differ from separate runs of :func:`sel_sequence`.  With
    ``probe_middle`` the middle player is :func:`_probe_player`."""
    if effect == "nondet":
        players = [nondet_argmax_selection(range(3)) for _ in range(3)]
        result = lambda xs, score: NondetValue((score,))
    elif effect == "trace":
        eff = trace_effect()
        players = [argmax_selection(range(3), eff, key=lambda t: t.value) for _ in range(3)]
        result = lambda xs, score: TraceValue((str(xs),), score)
    else:
        players = [argmax_selection(range(3)) for _ in range(3)]
        result = lambda xs, score: score
    if probe_middle:
        players[1] = _probe_player(effect)
    product = sequence(players)
    rng = random.Random(26)
    outer_scores = {xs: rng.randint(0, 4) for xs in itertools.product(range(3), repeat=3)}

    def inner_k(xs):
        return result(xs, 4 - outer_scores[xs])

    separate_inner = run_selection(sel_sequence(players), inner_k)
    separate_outer = run_selection(sel_sequence(players), lambda xs: result(xs, outer_scores[xs]))
    assert separate_inner != separate_outer
    inner_answers = []

    def outer_k(xs):
        inner_answers.append(run_selection(product, inner_k))
        return result(xs, outer_scores[xs])

    outer_answer = run_selection(product, outer_k)
    mismatches = (outer_answer != separate_outer) + sum(a != separate_inner for a in inner_answers)
    return len(inner_answers), mismatches


_ONE_CONTINUATION_EDITS = {
    "last stage": ("k(prefix + (x,))", "current[0](prefix + (x,))"),
    "stage": (
        "            run = stage(chooser, run, k)",
        "            run = stage(chooser, run, lambda xs: current[0](xs))",
    ),
}


def _one_continuation_per_product(sequence, parts=tuple(_ONE_CONTINUATION_EDITS)):
    """A broken product: its runners read one continuation cell that every
    run overwrites, so a nested run leaves its own ``k`` behind.  The last
    stage's edit hits its identity form and every generic form: the call
    of ``k`` that scores a candidate, and the scored runner's call for a
    choice it never scored.  The inner stages get the cell through
    ``stage``, whichever runners it builds; a scored runner reads it only
    to score a result whose choice it never scored.  ``parts`` names the
    edits made besides the cell itself."""
    return source_mutant(
        sequence,
        (
            "    def top(k: Continuation) -> Any:\n",
            "    current = [None]\n\n    def top(k: Continuation) -> Any:\n        current[0] = k\n",
        ),
        *(_ONE_CONTINUATION_EDITS[part] for part in parts),
    )


class TestSelSequenceRunnersPerRun:
    """Each run of a product builds its own stage runners, so a continuation
    may run the same product again, under another continuation, while the
    outer run is still scoring."""

    @pytest.mark.parametrize("effect", ["identity", "trace", "nondet"])
    def test_a_run_inside_a_continuation_equals_a_separate_run(self, effect):
        inner_runs, mismatches = _nested_run_mismatches(sel_sequence, effect)
        assert inner_runs >= 27
        assert mismatches == 0

    @pytest.mark.parametrize("effect", ["identity", "trace", "nondet"])
    def test_the_check_catches_one_continuation_per_product(self, effect):
        broken = _one_continuation_per_product(sel_sequence)
        assert _nested_run_mismatches(broken, effect)[1] > 0

    # Argmax players answer only moves they scored, so there the scored
    # runners of inner stages never read k: only an unscored choice below
    # the top makes them score a result by binding it into k.
    @pytest.mark.parametrize("effect", ["identity", "trace", "nondet"])
    def test_each_edit_alone_is_caught_past_an_unscored_choice(self, effect):
        assert _nested_run_mismatches(sel_sequence, effect, probe_middle=True)[1] == 0
        for part in _ONE_CONTINUATION_EDITS:
            broken = _one_continuation_per_product(sel_sequence, (part,))
            assert _nested_run_mismatches(broken, effect, probe_middle=True)[1] > 0, part


# The identity effect's twin: the same unit and an application bind, but not
# the instance ``identity_effect()`` returns, so ``sel_sequence`` runs it on
# the generic runners.
_TWIN = EffectInstance("Identity", lambda a: a, lambda m, f: f(m))


def _observed_run(sequence, choosers, effect, k):
    """The answer of ``sequence`` over ``choosers`` under ``k``, every
    argument ``k`` was called with, and the stage index of every chooser
    run, each in call order."""
    k_calls, chooser_runs = [], []

    def counted(index, chooser):
        def run(kk):
            chooser_runs.append(index)
            return chooser(kk)

        return SelectionComputation(run, effect)

    def logged_k(xs):
        k_calls.append(xs)
        return k(xs)

    product = sequence([counted(i, c) for i, c in enumerate(choosers)])
    return run_selection(product, logged_k), k_calls, chooser_runs


def _identity_runner_mismatches(sequence) -> tuple[int, int]:
    """Run seeded games (1-6 stages, 1-3 moves, payoffs 0-2 so that ties
    abound, one or two players) and probe products on seeded truth tables
    (1-8 variables) with ``sequence`` over ``identity_effect()`` and with
    :func:`sel_sequence` over its twin.  Returns the number of cases and of
    those where the runs' answers or chooser runs differ, or the twin's
    scored runners make calls other than the identity runners' with the
    re-scores left out."""
    rng = random.Random(29)
    cases = []
    for _ in range(120):
        stages, moves, players = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 2)
        plays = itertools.product(range(moves), repeat=stages)
        payoff = {xs: tuple(rng.randint(0, 2) for _ in range(players)) for xs in plays}
        owners = [rng.randrange(players) for _ in range(stages)]
        cases.append((
            lambda eff, owners=owners, moves=moves: [
                argmax_selection(range(moves), eff, key=lambda v, p=p: v[p]).chooser
                for p in owners
            ],
            payoff.__getitem__,
        ))
    for _ in range(120):
        arity, density = rng.randint(1, 8), rng.choice((0.0, 0.05, 0.3, 0.7, 1.0))
        table = {bits: rng.random() < density for bits in itertools.product((False, True), repeat=arity)}
        cases.append((lambda eff, arity=arity: [bool_probe(eff).chooser] * arity, table.__getitem__))
    mismatches = sum(
        not leaves_out_calls(
            _observed_run(sel_sequence, choosers(_TWIN), _TWIN, k),
            _observed_run(sequence, choosers(_ID), _ID, k),
        )
        for choosers, k in cases
    )
    return len(cases), mismatches


def _effect_bind_calls(solve, effect) -> int:
    """How many times ``solve()`` calls ``effect``'s bind or map."""
    codes = {effect.bind.__code__, effect.map.__code__}
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        solve()
    finally:
        sys.setprofile(None)
    return calls[0]


class TestIdentityRunners:
    """Over ``identity_effect()`` itself, ``sel_sequence`` applies where it
    would bind; any other effect, an identity-like twin included, binds."""

    def test_they_run_as_the_generic_runners_over_a_twin(self):
        cases, mismatches = _identity_runner_mismatches(sel_sequence)
        assert (cases, mismatches) == (240, 0)

    def test_on_a_uniform_game_only_the_twin_scores_each_leaf_once(self):
        # Three stages of three moves: the identity memo runners score each
        # of the 12 candidates of the two inner stages' runs once more, so
        # k runs (3^4 - 1)/(3 - 1) - 1 = 39 times; the twin's scored runners
        # call it once per play, 27 times, in the order of the plays.
        choosers = lambda eff: [argmax_selection(range(3), eff).chooser] * 3
        payoff = lambda xs: sum(xs) % 4
        identity = _observed_run(sel_sequence, choosers(_ID), _ID, payoff)
        twin = _observed_run(sel_sequence, choosers(_TWIN), _TWIN, payoff)
        assert len(identity[1]) == 39
        assert twin[1] == list(itertools.product(range(3), repeat=3))
        assert leaves_out_calls(twin, identity)

    def test_the_check_catches_a_memo_serving_the_last_scored_run(self):
        last_run = source_mutant(
            sel_sequence,
            (
                "x = chooser(extended)\n                entry = runs.get(id(x))",
                "x = chooser(extended)\n                entry = next(reversed(runs.values()), None)",
            ),
        )
        assert _identity_runner_mismatches(last_run)[1] > 0

    def test_the_identity_products_bind_and_map_nothing(self):
        game = SequentialGameSpec(
            ("P", "Q"), (Stage(0, ("a", "b")), Stage(1, ("c", "d")), Stage(0, ("e", "f"))),
            lambda play: (len(set(play)), ord(play[-1])),
        )
        assert _effect_bind_calls(lambda: sat_product(BooleanFormula(6, all)), _ID) == 0
        assert _effect_bind_calls(lambda: backward_induction(game), _ID) == 0
        probes = [SelectionComputation(bool_probe().chooser, _TWIN)] * 6
        twin_sat = lambda: run_selection(sel_sequence(probes), all)
        assert _effect_bind_calls(twin_sat, _TWIN) > 0


class TestRunners:
    def test_run_selection_on_unit(self):
        assert run_selection(sel_unit(9), lambda x: x + 1) == 9

    def test_probe_chooses_by_continuation_value(self):
        assert run_selection(bool_probe(), lambda b: b) is True
        assert run_selection(bool_probe(), lambda b: not b) is False

    def test_lift_exposes_the_effect_value(self):
        eff = trace_effect()
        lifted = sel_lift(TraceValue(("hello",), 3), eff)
        assert run_selection(lifted, lambda x: eff.unit(x)) == TraceValue(("hello",), 3)

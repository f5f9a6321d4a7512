"""Tests for the selection and quantifier computations and their combinators."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selcc import (
    EffectInstance,
    NondetValue,
    QuantifierComputation,
    SelectionComputation,
    TraceValue,
    identity_effect,
    invoke_coercion,
    nondet_argmax_selection,
    nondet_effect,
    quant_bind,
    quant_unit,
    run_quantifier,
    run_selection,
    sel_bind,
    sel_lift,
    sel_product,
    sel_sequence,
    sel_unit,
    to_quantifier,
    trace_effect,
)
from selcc.search import bool_probe

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
        f, runs = self._counting_family()
        eps = self._score_true_then_choose(True)
        assert run_selection(sel_bind(eps, f, rerun=True), lambda b: b) is True
        assert runs == [True, True]

    @pytest.mark.parametrize("rerun, expected", [(False, [1, 1]), (True, [1, 1, 1])])
    def test_scoring_a_candidate_twice_runs_its_branch_twice(self, rerun, expected):
        # The memo serves only the chosen branch's second run: each scoring
        # call runs the branch again.
        f, runs = self._counting_family()

        def chooser(k):
            k(1)
            k(1)
            return 1

        eps = SelectionComputation(chooser, _ID)
        assert run_selection(sel_bind(eps, f, rerun=rerun), lambda b: b) == 1
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
    # With the memo, (m^n - 1)/(m - 1) stage runs make one bind each, the
    # candidates scored at inner stages one fewer, and the m^n scored leaves
    # call k with no bind; rerun=True runs each chosen branch again.  The
    # continuation calls are those that binding a unit into k made.
    @pytest.mark.parametrize(
        "stages, moves, rerun, binds, calls",
        [
            (4, 4, False, 169, 1024),
            (6, 2, False, 125, 384),
            (4, 4, True, 877, 3840),
            (6, 2, True, 2047, 4032),
        ],
    )
    def test_effect_binds_on_all_tie_games(self, stages, moves, rerun, binds, calls):
        base = nondet_effect()
        counts = {"binds": 0, "calls": 0}

        def bind(m, f):
            counts["binds"] += 1
            return base.bind(m, f)

        def k(xs):
            counts["calls"] += 1
            return NondetValue((0,))

        eff = EffectInstance(base.name, base.unit, bind)
        players = [
            SelectionComputation(nondet_argmax_selection(range(moves)).chooser, eff)
            for _ in range(stages)
        ]
        chosen = run_selection(sel_sequence(players, rerun=rerun), k)
        assert chosen.alternatives == tuple(itertools.product(range(moves), repeat=stages))
        assert counts == {"binds": binds, "calls": calls}


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

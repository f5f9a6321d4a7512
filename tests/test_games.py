"""Tests for argmax players, voting agents, and the two game solvers."""
from __future__ import annotations

import itertools
import random

import pytest

from selcc import (
    NondetValue,
    SelectionComputation,
    SequentialGameSpec,
    SimultaneousGameSpec,
    Stage,
    argmax_selection,
    backward_induction,
    backward_induction_oracle,
    fix_selection,
    identity_effect,
    max_quantifier,
    nash_oracle,
    nondet_argmax_selection,
    nondet_effect,
    punk_selection,
    run_quantifier,
    run_selection,
    simultaneous_equilibria,
    sum_selections,
    trace_effect,
)
from selcc.games import _repeated_index

from helpers import source_mutant

_SCORES = (-2, -1, 0, 1, 2)


def _example_game() -> SequentialGameSpec:
    table = {
        ("L", "l"): (2, 1),
        ("L", "r"): (0, 0),
        ("R", "l"): (1, 2),
        ("R", "r"): (3, 0),
    }
    return SequentialGameSpec(
        players=("P1", "P2"),
        stages=(Stage(0, ("L", "R")), Stage(1, ("l", "r"))),
        payoff=table.__getitem__,
    )


def _coordination_game() -> SimultaneousGameSpec:
    table = {
        ("A", "A"): (1, 1),
        ("A", "B"): (0, 0),
        ("B", "A"): (0, 0),
        ("B", "B"): (1, 1),
    }
    return SimultaneousGameSpec(
        players=("Row", "Col"),
        moves=(("A", "B"), ("A", "B")),
        payoff=lambda x, y: table[(x, y)],
    )


def _matching_pennies() -> SimultaneousGameSpec:
    return SimultaneousGameSpec(
        players=("Row", "Col"),
        moves=(("H", "T"), ("H", "T")),
        payoff=lambda x, y: (1, -1) if x == y else (-1, 1),
    )


class TestArgmax:
    def test_picks_the_first_maximum(self):
        eps = argmax_selection((0, 1, 2, 3))
        assert run_selection(eps, lambda x: x * (3 - x)) == 1

    def test_constant_scores_break_ties_to_the_first_element(self):
        eps = argmax_selection((0, 1, 2, 3))
        assert run_selection(eps, lambda _: 0) == 0

    def test_identity_scores_pick_the_largest(self):
        eps = argmax_selection((0, 1, 2, 3))
        assert run_selection(eps, lambda x: x) == 3

    def test_empty_domain_is_rejected(self):
        with pytest.raises(ValueError):
            argmax_selection(())

    def test_chosen_point_is_invariant_under_monotone_rescaling(self):
        transforms = (lambda v: 2 * v + 1, lambda v: v**3, lambda v: v + 7)
        for size in (1, 2, 3):
            domain = tuple(range(size))
            for table in itertools.product(_SCORES, repeat=size):
                base = run_selection(argmax_selection(domain), table.__getitem__)
                for t in transforms:
                    rescaled = run_selection(
                        argmax_selection(domain), lambda x: t(table[x])
                    )
                    assert rescaled == base


class TestMaxQuantifier:
    def test_reports_the_best_score(self):
        phi = max_quantifier((0, 1, 2, 3))
        assert run_quantifier(phi, lambda x: x * (3 - x)) == 2
        assert run_quantifier(phi, lambda _: 7) == 7
        assert run_quantifier(phi, lambda x: x) == 3

    def test_equals_the_scored_argmax_choice_exhaustively(self):
        for size in (1, 2, 3, 4):
            domain = tuple(range(size))
            for table in itertools.product(_SCORES, repeat=size):
                k = table.__getitem__
                chosen = run_selection(argmax_selection(domain), k)
                assert k(chosen) == run_quantifier(max_quantifier(domain), k)
                assert k(chosen) == max(table)


class TestNondetArgmax:
    def test_keeps_every_maximiser(self):
        eps = nondet_argmax_selection((0, 1, 2))
        scores = (1, 2, 2)
        chosen = run_selection(eps, lambda x: NondetValue((scores[x],)))
        assert chosen == NondetValue((1, 2))

    def test_scores_by_the_best_alternative(self):
        eps = nondet_argmax_selection((0, 1))
        chosen = run_selection(
            eps, lambda x: NondetValue((0, 5)) if x == 0 else NondetValue((4,))
        )
        assert chosen == NondetValue((0,))

    def test_unscoreable_elements_are_excluded(self):
        eps = nondet_argmax_selection((0, 1, 2))
        chosen = run_selection(
            eps,
            lambda x: NondetValue(()) if x == 1 else NondetValue((x,)),
        )
        assert chosen == NondetValue((2,))

    def test_nothing_scoreable_chooses_nothing(self):
        eps = nondet_argmax_selection((0, 1))
        assert run_selection(eps, lambda _: NondetValue(())) == NondetValue(())

    def test_empty_domain_is_rejected(self):
        with pytest.raises(ValueError):
            nondet_argmax_selection(())

    def test_repeated_element_is_rejected(self):
        with pytest.raises(
            ValueError, match="^nondet_argmax_selection domain repeats element 'a'$"
        ):
            nondet_argmax_selection(["a", "b", "a"])


def _reference_argmax(domain, eff=None, key=None):
    """The argmax player as written with ``max``: the reference for the
    one-loop chooser."""
    elements = tuple(domain)
    eff = eff if eff is not None else identity_effect()

    def chooser(k):
        if key is None:
            return eff.unit(max(elements, key=k))
        return eff.unit(max(elements, key=lambda x: key(k(x))))

    return SelectionComputation(chooser, eff)


def _last_maximiser_argmax(domain, eff=None, key=None):
    """A broken argmax player: same calls, but ties go to the last maximiser."""
    elements = tuple(domain)
    eff = eff if eff is not None else identity_effect()

    def chooser(k):
        scores = [k(x) if key is None else key(k(x)) for x in elements]
        return eff.unit(elements[len(scores) - 1 - scores[::-1].index(max(scores))])

    return SelectionComputation(chooser, eff)


def _reference_nondet_argmax(domain, key=None):
    """The nondet argmax player as written with a generator per element:
    the reference for the ``map`` scoring."""
    elements = tuple(domain)
    project = key if key is not None else (lambda value: value)

    def chooser(k):
        scored = []
        for x in elements:
            alternatives = k(x).alternatives
            if alternatives:
                scored.append((x, max(project(v) for v in alternatives)))
        if not scored:
            return NondetValue(())
        best = max(score for _, score in scored)
        return NondetValue(tuple(x for x, score in scored if score == best))

    return SelectionComputation(chooser, nondet_effect())


def _empty_scoring_nondet_argmax(domain, key=None):
    """A broken nondet argmax player: an empty result scores 0 instead of
    excluding its element."""
    elements = tuple(domain)
    project = key if key is not None else (lambda value: value)

    def chooser(k):
        scores = [max(map(project, k(x).alternatives), default=0) for x in elements]
        best = max(scores)
        return NondetValue(tuple(x for x, score in zip(elements, scores) if score == best))

    return SelectionComputation(chooser, nondet_effect())


def _observe_chooser(selection, table):
    """The chooser's answer under ``table`` as the continuation, and the
    argument of each continuation call in order."""
    calls = []

    def k(x):
        calls.append(x)
        return table[x]

    return selection.chooser(k), calls


def _first(utilities):
    return utilities[0]


def _argmax_mismatches(argmax) -> tuple[int, int]:
    """(cases, mismatches) of ``argmax`` against :func:`_reference_argmax`,
    answers and continuation calls both, over seeded score tables with
    frequent ties on one to six moves: identity and trace effects, with
    integer scores and ``key=None`` and with tuples under a projecting key."""
    rng = random.Random(14)
    cases = mismatches = 0
    for eff, key in itertools.product((identity_effect(), trace_effect()), (None, _first)):
        for m in range(1, 7):
            moves = tuple(f"m{i}" for i in range(m))
            for _ in range(20):
                table = {x: rng.randint(0, 2) for x in moves}
                if key is not None:
                    table = {x: (score, rng.randint(0, 9)) for x, score in table.items()}
                cases += 1
                mismatches += _observe_chooser(argmax(moves, eff, key), table) != (
                    _observe_chooser(_reference_argmax(moves, eff, key), table)
                )
    return cases, mismatches


def _nondet_argmax_mismatches(argmax) -> tuple[int, int]:
    """(cases, mismatches) of ``argmax`` against
    :func:`_reference_nondet_argmax`, answers and continuation calls both,
    over seeded tables of zero to three alternatives per move (so ties,
    empty results and all-empty tables all occur) on one to six moves, with
    integer alternatives and ``key=None`` and with tuples under a
    projecting key."""
    rng = random.Random(14)
    cases = mismatches = 0
    for key in (None, _first):
        for m in range(1, 7):
            moves = tuple(f"m{i}" for i in range(m))
            for _ in range(20):
                table = {x: rng.sample(range(3), rng.randint(0, 3)) for x in moves}
                if key is not None:
                    table = {x: [(v, rng.randint(0, 9)) for v in vs] for x, vs in table.items()}
                table = {x: NondetValue(tuple(vs)) for x, vs in table.items()}
                cases += 1
                mismatches += _observe_chooser(argmax(moves, key), table) != (
                    _observe_chooser(_reference_nondet_argmax(moves, key), table)
                )
    return cases, mismatches


class TestArgmaxAgainstReference:
    def test_argmax_equals_the_max_reference(self):
        assert _argmax_mismatches(argmax_selection) == (480, 0)

    def test_the_check_catches_ties_to_the_last_maximiser(self):
        cases, mismatches = _argmax_mismatches(_last_maximiser_argmax)
        assert cases == 480
        assert mismatches > 0

    def test_nondet_argmax_equals_the_generator_reference(self):
        assert _nondet_argmax_mismatches(nondet_argmax_selection) == (240, 0)

    def test_the_check_catches_scored_empty_results(self):
        cases, mismatches = _nondet_argmax_mismatches(_empty_scoring_nondet_argmax)
        assert cases == 240
        assert mismatches > 0


def _two_pass_mismatches(argmax) -> tuple[int, int, int, int]:
    """(cases, tied cases, empty answers, mismatches) of ``argmax`` against the two-pass
    rule of :func:`_reference_nondet_argmax`, answers and continuation calls
    both, over seeded integer tables on one to ten moves where each move's
    result is empty one time in four and otherwise holds one or two scores
    out of three, so most tables tie and some leave nothing to score."""
    rng = random.Random(26)
    cases = tied = empty = mismatches = 0
    for m in range(1, 11):
        moves = tuple(range(m))
        for _ in range(30):
            table = {
                x: NondetValue(() if rng.random() < 0.25 else tuple(rng.sample(range(3), rng.randint(1, 2))))
                for x in moves
            }
            expected = _observe_chooser(_reference_nondet_argmax(moves), table)
            cases += 1
            tied += len(expected[0].alternatives) > 1
            empty += not expected[0].alternatives
            mismatches += _observe_chooser(argmax(moves), table) != expected
    return cases, tied, empty, mismatches


class TestNondetArgmaxOnePass:
    """The chooser scores in one pass; it keeps the two-pass rule's answer:
    the best score first, then every element that reaches it, in domain
    order."""

    def test_one_pass_equals_the_two_pass_rule(self):
        assert _two_pass_mismatches(nondet_argmax_selection) == (300, 194, 14, 0)

    def test_the_check_catches_restarting_on_a_tie(self):
        keeps_the_last = source_mutant(nondet_argmax_selection, ("score > best", "score >= best"))
        cases, _, _, mismatches = _two_pass_mismatches(keeps_the_last)
        assert cases == 300
        assert mismatches > 0


class TestVotingAgents:
    def test_conformist_keeps_fixpoints_in_domain_order(self):
        domain = ("A", "B")
        eps = fix_selection(domain)
        assert run_selection(eps, lambda x: NondetValue((x,))) == NondetValue(domain)
        assert run_selection(eps, lambda _: NondetValue(("A",))) == NondetValue(("A",))

    def test_contrarian_keeps_non_fixpoints(self):
        eps = punk_selection(("A", "B"))
        assert run_selection(eps, lambda _: NondetValue(("A",))) == NondetValue(("B",))
        assert run_selection(eps, lambda x: NondetValue((x,))) == NondetValue(())

    @pytest.mark.parametrize("agent", [fix_selection, punk_selection])
    def test_repeated_element_is_rejected(self, agent):
        with pytest.raises(
            ValueError, match=f"^{agent.__name__} domain repeats element 'a'$"
        ):
            agent(["a", "a"])
        with pytest.raises(ValueError, match=r"repeats element \[1\]$"):
            agent([[1], [2], [1]])

    def test_unhashable_elements_are_accepted(self):
        domain = ([1], [2])
        k = lambda _: NondetValue(([2],))
        assert run_selection(fix_selection(domain), k) == NondetValue(([2],))
        assert run_selection(punk_selection(domain), k) == NondetValue(([1],))

    def test_agents_complement_each_other_pointwise(self):
        domain = ("A", "B", "C")
        outcomes = (
            NondetValue(()),
            NondetValue(("A",)),
            NondetValue(("B", "C")),
            NondetValue(("A", "B", "C")),
        )
        for table in itertools.product(range(len(outcomes)), repeat=len(domain)):
            k = lambda x, t=table: outcomes[t[domain.index(x)]]
            fixed = run_selection(fix_selection(domain), k).alternatives
            contrary = run_selection(punk_selection(domain), k).alternatives
            assert tuple(sorted(fixed + contrary)) == domain
            assert not set(fixed) & set(contrary)

    def test_majority_vote_matches_a_direct_comprehension(self):
        domain = ("A", "B", "C")

        def winner(vote: str) -> str:
            ballots = (vote, "A", "B")
            counts = {c: ballots.count(c) for c in domain}
            best = max(counts.values())
            return next(c for c in domain if counts[c] == best)

        k = lambda x: NondetValue((winner(x),))
        fixed = run_selection(fix_selection(domain), k)
        contrary = run_selection(punk_selection(domain), k)
        assert fixed.alternatives == tuple(
            x for x in domain if x in k(x).alternatives
        )
        assert contrary.alternatives == tuple(
            x for x in domain if x not in k(x).alternatives
        )
        assert fixed == NondetValue(("A", "B"))
        assert contrary == NondetValue(("C",))


class TestBackwardInduction:
    def test_two_stage_example(self):
        play, outcome = backward_induction(_example_game())
        assert play == ("L", "l")
        assert outcome == (2, 1)

    def test_oracle_agrees_on_the_example(self):
        assert backward_induction_oracle(_example_game()) == backward_induction(
            _example_game()
        )

    def test_single_stage_single_move(self):
        game = SequentialGameSpec(("P",), (Stage(0, ("a",)),), lambda _: (0,))
        assert backward_induction(game) == (("a",), (0,))

    def test_irrelevant_stage_keeps_its_first_move(self):
        game = SequentialGameSpec(
            ("P1", "P2"),
            (Stage(0, ("x", "y")), Stage(1, ("p", "q"))),
            lambda play: (1 if play[0] == "y" else 0, 0),
        )
        play, _ = backward_induction(game)
        assert play == ("y", "p")

    def test_single_stage_games_reduce_to_argmax(self):
        for table in itertools.product(_SCORES, repeat=3):
            game = SequentialGameSpec(
                ("P",),
                (Stage(0, ("a", "b", "c")),),
                lambda play, t=table: (t["abc".index(play[0])],),
            )
            play, outcome = backward_induction(game)
            assert outcome[0] == max(table)
            assert play == backward_induction_oracle(game)[0]

    def test_matches_the_oracle_on_random_games(self):
        rng = random.Random(42)
        for _ in range(60):
            n_players = rng.randint(1, 3)
            stages = tuple(
                Stage(
                    rng.randrange(n_players),
                    tuple(f"m{i}{j}" for j in range(rng.randint(1, 3))),
                )
                for i in range(rng.randint(1, 3))
            )
            plays = list(itertools.product(*(s.moves for s in stages)))
            table = {
                play: tuple(rng.randint(-2, 2) for _ in range(n_players))
                for play in plays
            }
            game = SequentialGameSpec(
                tuple(f"P{i}" for i in range(n_players)), stages, table.__getitem__
            )
            assert backward_induction(game) == backward_induction_oracle(game)

    def test_rejects_bad_controller_index(self):
        game = SequentialGameSpec(("P",), (Stage(1, ("a",)),), lambda _: (0,))
        with pytest.raises(ValueError, match="controller"):
            backward_induction(game)

    def test_rejects_empty_move_list(self):
        game = SequentialGameSpec(("P",), (Stage(0, ()),), lambda _: (0,))
        with pytest.raises(ValueError, match="moves"):
            backward_induction(game)

    def test_rejects_a_repeated_move(self):
        game = SequentialGameSpec(("P",), (Stage(0, ("a", "a")),), lambda _: (0,))
        with pytest.raises(ValueError, match="^stage 0 repeats move 'a'$"):
            backward_induction(game)
        with pytest.raises(ValueError, match="^stage 0 repeats move 'a'$"):
            backward_induction_oracle(game)

    def test_oracle_rejects_oversized_trees(self):
        game = SequentialGameSpec(
            ("P",),
            tuple(Stage(0, ("a", "b")) for _ in range(20)),
            lambda _: (0,),
        )
        with pytest.raises(ValueError, match="too large"):
            backward_induction_oracle(game)


def _counting_game(
    moves_per_stage: int, n_stages: int
) -> tuple[SequentialGameSpec, list[int]]:
    """A two-player alternating game whose payoff counts its calls."""
    calls = [0]

    def payoff(play):
        calls[0] += 1
        return (sum(map(len, play)) % 5, len(set(play)))

    stages = tuple(
        Stage(i % 2, tuple(f"m{j}" for j in range(moves_per_stage)))
        for i in range(n_stages)
    )
    return SequentialGameSpec(("P1", "P2"), stages, payoff), calls


class TestBackwardInductionPayoffCounts:
    """Exact payoff-call counts: (m^(n+1) - 1) / (m - 1) for m moves over n
    stages, the final ``payoff(play)`` included, because each stage's chosen
    move is scored once and then reused rather than run again."""

    @pytest.mark.parametrize(
        "moves, stages, expected", [(2, 8, 511), (3, 6, 1093), (8, 3, 585)]
    )
    def test_uniform_games(self, moves, stages, expected):
        game, calls = _counting_game(moves, stages)
        assert backward_induction(game) == backward_induction_oracle(game)
        calls[0] = 0
        backward_induction(game)
        assert calls[0] == expected

    def test_single_move_stages_make_one_call_per_stage_plus_one(self):
        game, calls = _counting_game(1, 18)
        assert backward_induction(game) == (("m0",) * 18, (36 % 5, 1))
        assert calls[0] == 19


class TestSimultaneousGames:
    def test_matching_pennies_has_no_equilibrium(self):
        assert simultaneous_equilibria(_matching_pennies()) == ()
        assert nash_oracle(_matching_pennies()) == ()

    def test_coordination_has_both_agreements(self):
        assert simultaneous_equilibria(_coordination_game()) == (("A", "A"), ("B", "B"))
        assert nash_oracle(_coordination_game()) == (("A", "A"), ("B", "B"))

    def test_singleton_domains_always_pair_up(self):
        game = SimultaneousGameSpec(
            ("Row", "Col"), (("x",), ("y",)), lambda *_: (0, 0)
        )
        assert simultaneous_equilibria(game) == (("x", "y"),)

    def test_constant_payoffs_make_every_pair_an_equilibrium(self):
        game = SimultaneousGameSpec(
            ("Row", "Col"), (("A", "B"), ("A", "B")), lambda *_: (3, 3)
        )
        expected = (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"))
        assert nash_oracle(game) == expected
        assert simultaneous_equilibria(game) == expected

    def test_players_combine_to_exactly_the_oracle_on_random_games(self):
        rng = random.Random(7)
        for _ in range(100):
            table = {
                (x, y): (rng.randint(0, 2), rng.randint(0, 2))
                for x in ("A", "B")
                for y in ("A", "B")
            }
            game = SimultaneousGameSpec(
                ("Row", "Col"),
                (("A", "B"), ("A", "B")),
                lambda x, y: table[(x, y)],
            )
            assert simultaneous_equilibria(game) == nash_oracle(game)

    @pytest.mark.parametrize("which", ["x_domain", "y_domain"])
    def test_sum_rejects_a_repeated_move(self, which):
        eps = nondet_argmax_selection(("A", "B"))
        domains = {"x_domain": ("A", "B"), "y_domain": ("A", "B")}
        domains[which] = ("A", "B", "B")
        with pytest.raises(
            ValueError, match=f"^sum_selections {which} repeats element 'B'$"
        ):
            sum_selections(eps, eps, domains["x_domain"], domains["y_domain"])

    def test_sum_accepts_unhashable_moves(self):
        moves = ([0], [1])
        eps = fix_selection(moves)
        chosen = run_selection(
            sum_selections(eps, eps, moves, moves), lambda pair: NondetValue(pair)
        )
        assert chosen.alternatives == tuple(itertools.product(moves, moves))


class TestSumSelectionsContinuationCalls:
    """Exact work of the sum on tie-free m-by-m games: one row-player run per
    column move and one column-player run per row move, so 2m chooser runs
    and 2m^2 continuation calls (running the row player for every pair made
    m^3 + m^2 calls)."""

    @pytest.mark.parametrize(
        "m, k_calls, chooser_runs",
        [(2, 8, 4), (5, 50, 10), (20, 800, 40), (30, 1800, 60)],
    )
    def test_tie_free_games(self, m, k_calls, chooser_runs):
        rng = random.Random(m)
        moves = tuple(f"m{i}" for i in range(m))
        cells = list(itertools.product(moves, moves))
        table = dict(
            zip(cells, zip(rng.sample(range(m * m), m * m), rng.sample(range(m * m), m * m)))
        )
        game = SimultaneousGameSpec(
            ("Row", "Col"), (moves, moves), lambda x, y: table[(x, y)]
        )
        counts = {"k": 0, "chooser": 0}

        def counted(selection):
            def chooser(k):
                counts["chooser"] += 1
                return selection.chooser(k)

            return SelectionComputation(chooser, selection.effect)

        def k(pair):
            counts["k"] += 1
            return NondetValue((table[pair],))

        eps = counted(nondet_argmax_selection(moves, key=lambda u: u[0]))
        delta = counted(nondet_argmax_selection(moves, key=lambda u: u[1]))
        chosen = run_selection(sum_selections(eps, delta, moves, moves), k)
        assert chosen.alternatives == nash_oracle(game)
        assert counts == {"k": k_calls, "chooser": chooser_runs}


def _per_pair_sum(eps, delta, xs, ys):
    """The reference definition of the sum: run the first player for every
    pair, and the second player wherever the first accepts its component."""

    def chooser(k):
        pairs = []
        for x in xs:
            for y in ys:
                if x not in eps.chooser(lambda xp, y=y: k((xp, y))).alternatives:
                    continue
                if y in delta.chooser(lambda yp, x=x: k((x, yp))).alternatives:
                    pairs.append((x, y))
        return NondetValue(tuple(pairs))

    return SelectionComputation(chooser, nondet_effect())


def _sum_with_swapped_lookups(eps, delta, xs, ys):
    """A broken tabulated sum for square games: it looks each best-response
    table up by the other player's index."""

    def chooser(k):
        row_replies = [eps.chooser(lambda xp, y=y: k((xp, y))).alternatives for y in ys]
        col_replies = [delta.chooser(lambda yp, x=x: k((x, yp))).alternatives for x in xs]
        return NondetValue(tuple(
            (x, y)
            for i, x in enumerate(xs)
            for j, y in enumerate(ys)
            if x in row_replies[i] and y in col_replies[j]
        ))

    return SelectionComputation(chooser, nondet_effect())


def _sum_mismatches(sum_impl) -> tuple[int, int]:
    """(cases, mismatches) of ``sum_impl`` against the per-pair reference,
    alternatives and order both, on seeded m-by-m games with ties (m <= 6):
    argmax players, also checked against ``nash_oracle``, and every pairing
    of ``fix_selection`` and ``punk_selection`` over random move sets."""
    rng = random.Random(2017)
    cases = mismatches = 0
    for m in range(1, 7):
        moves = tuple(f"m{i}" for i in range(m))
        cells = list(itertools.product(moves, moves))
        for _ in range(12):
            table = {cell: (rng.randint(0, 2), rng.randint(0, 2)) for cell in cells}
            game = SimultaneousGameSpec(
                ("Row", "Col"), (moves, moves), lambda x, y, t=table: t[(x, y)]
            )
            k = lambda pair, t=table: NondetValue((t[pair],))
            eps = nondet_argmax_selection(moves, key=lambda u: u[0])
            delta = nondet_argmax_selection(moves, key=lambda u: u[1])
            chosen = run_selection(sum_impl(eps, delta, moves, moves), k)
            reference = run_selection(_per_pair_sum(eps, delta, moves, moves), k)
            cases += 2
            mismatches += chosen != reference
            mismatches += chosen.alternatives != nash_oracle(game)

            outcomes = {
                cell: NondetValue(tuple(v for v in moves if rng.random() < 0.5))
                for cell in cells
            }
            for row_agent, col_agent in itertools.product(
                (fix_selection, punk_selection), repeat=2
            ):
                eps, delta = row_agent(moves), col_agent(moves)
                chosen = run_selection(sum_impl(eps, delta, moves, moves), outcomes.get)
                reference = run_selection(
                    _per_pair_sum(eps, delta, moves, moves), outcomes.get
                )
                cases += 1
                mismatches += chosen != reference
    return cases, mismatches


class TestSumSelectionsAgainstPerPairReference:
    def test_tabulated_sum_equals_the_per_pair_definition(self):
        assert _sum_mismatches(sum_selections) == (432, 0)

    def test_the_check_catches_swapped_table_lookups(self):
        cases, mismatches = _sum_mismatches(_sum_with_swapped_lookups)
        assert cases == 432
        assert mismatches > 0


def _set_scan_repeated_index(elements):
    """The reference for ``_repeated_index``: one set scan over every
    element, and the pairwise scan once an element is unhashable."""
    seen = set()
    try:
        for index, element in enumerate(elements):
            if element in seen:
                return index
            seen.add(element)
    except TypeError:
        return next((i for i, element in enumerate(elements) if element in elements[:i]), None)
    return None


# Equal across types (1 == True == 1.0, 0 == False == 0.0), distinct
# strings, and unhashable lists that equal each other or nothing.
_POOL = (1, True, 1.0, 0, False, 0.0, 2, "a", "b", "c", "1", (1,), [1], [1], [2], [])


class TestRepeatedIndexAgainstTheSetScan:
    def test_seeded_sequences_give_the_same_index(self):
        rng = random.Random(22)
        repeats = unhashable = 0
        for _ in range(3000):
            length = rng.randrange(31)
            if rng.random() < 0.5:  # distinct hashable moves, as most games have
                elements = tuple(f"m{i}" for i in rng.sample(range(60), length))
            else:
                elements = tuple(rng.choice(_POOL) for _ in range(length))
            expected = _set_scan_repeated_index(elements)
            assert _repeated_index(elements) == expected, elements
            assert _repeated_index(list(elements)) == expected, elements
            repeats += expected is not None
            unhashable += any(isinstance(e, list) for e in elements)
        assert repeats > 1000 and unhashable > 1000

    @pytest.mark.parametrize(
        "elements, index",
        [
            ((), None),
            (("a",), None),
            (("a", "b", "a"), 2),
            ((1, True), 1),
            ((1.0, 2, 1), 2),
            ((0, "0", False), 2),
            (([1], 2, [1]), 2),
            (([1], [2]), None),
            (("a", [1], "a"), 2),
        ],
    )
    def test_edge_cases(self, elements, index):
        assert _repeated_index(elements) == index == _set_scan_repeated_index(elements)

    def test_repeated_moves_are_still_named_in_the_errors(self):
        with pytest.raises(ValueError, match="domain repeats element True$"):
            nondet_argmax_selection((1, True))
        with pytest.raises(ValueError, match=r"^stage 0 repeats move 'a'$"):
            backward_induction(
                SequentialGameSpec(("P",), (Stage(0, ("a", "b", "a")),), lambda play: (0,))
            )

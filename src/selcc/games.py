"""Game solving with selection computations.

Players are selections: given a continuation that scores each move (the
rules of the game plus everyone downstream), a player chooses a move.  A
rational player is :func:`argmax_selection`; sequential games are solved by
taking the product of per-stage players (:func:`backward_induction`); context-
dependent agents such as :func:`fix_selection` (vote for the winner) and
:func:`punk_selection` (vote against the winner) live over the
nondeterminism effect, as does :func:`sum_selections`, which combines two
players of a simultaneous game into a selection over move pairs; the sum of
two nondeterministic argmax players solves a simultaneous game
(:func:`simultaneous_equilibria`).

Utilities are integers throughout: comparisons stay exact and tie-breaks stay
deterministic, which the differential oracles rely on.

The definition of :func:`sum_selections` is an interpretation: it returns the
move pairs where each player's component is among that player's own choices
when the other's component is held fixed.  With both players as
nondeterministic argmax selections this yields exactly the pure Nash
equilibria (checked against :func:`nash_oracle`); see README.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from .core import (
    QuantifierComputation,
    SelectionComputation,
    run_selection,
    sel_sequence,
    to_quantifier,
)
from .effects import EffectInstance, NondetValue, _dedup, identity_effect, nondet_effect

X = TypeVar("X")

UtilityVector = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Stage:
    """One decision point: which player moves and what moves are available."""

    controller: int
    moves: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class SequentialGameSpec:
    """A perfect-information sequential game.

    ``payoff`` must be total on the product of all stages' move enumerations
    and return one integer utility per player.
    """

    players: tuple[str, ...]
    stages: tuple[Stage, ...]
    payoff: Callable[[tuple[str, ...]], UtilityVector]


@dataclass(frozen=True, slots=True)
class SimultaneousGameSpec:
    """A two-player one-shot game with finite move enumerations per player."""

    players: tuple[str, str]
    moves: tuple[tuple[str, ...], tuple[str, ...]]
    payoff: Callable[[str, str], UtilityVector]


def _repeated_index(elements: Sequence[Any]) -> int | None:
    """The index of the first element equal to an earlier one, or None.

    A repeat is what :func:`~selcc.effects._dedup` drops (``==`` after
    identity, the first occurrence kept), so the first one sits where
    ``elements`` and the kept elements first differ in identity, or just past
    the kept ones when none does.
    """
    kept = _dedup(elements)
    if len(kept) == len(elements):
        return None
    return next((i for i, (x, k) in enumerate(zip(elements, kept)) if x is not k), len(kept))


def _distinct(domain: Sequence[X], what: str) -> tuple[X, ...]:
    """``domain`` as a tuple; ``ValueError`` naming the first repeated
    element otherwise, since a ``NondetValue`` built from it must not hold
    one alternative twice."""
    elements = tuple(domain)
    repeated = _repeated_index(elements)
    if repeated is not None:
        raise ValueError(f"{what} repeats element {elements[repeated]!r}")
    return elements


def argmax_selection(
    domain: Sequence[X],
    eff: EffectInstance | None = None,
    key: Callable[[Any], int] | None = None,
) -> SelectionComputation[X, Any]:
    """The rational player: choose the first domain element maximising the
    continuation's score.

    ``key`` projects a score out of the continuation's result (identity by
    default, for integer-valued continuations); ties break to the earliest
    element in enumeration order.
    """
    elements = tuple(domain)
    if not elements:
        raise ValueError("argmax_selection requires a nonempty domain")
    eff = eff if eff is not None else identity_effect()
    unit = eff.unit
    first, rest = elements[0], elements[1:]

    # One loop rather than ``max(elements, key=...)``: a projecting key would
    # need a lambda frame per candidate.  ``>`` keeps the first maximiser, as
    # ``max`` does.
    def chooser(k: Callable[[X], Any]) -> Any:
        best = first
        best_score = k(first) if key is None else key(k(first))
        for x in rest:
            score = k(x) if key is None else key(k(x))
            if score > best_score:
                best, best_score = x, score
        return unit(best)

    return SelectionComputation(chooser, eff)


def max_quantifier(domain: Sequence[X]) -> QuantifierComputation[X, int]:
    """The maximum-value quantifier, defined as the argmax player's overall
    result: score the best move."""
    return to_quantifier(argmax_selection(domain))


def nondet_argmax_selection(
    domain: Sequence[X],
    key: Callable[[Any], int] | None = None,
) -> SelectionComputation[X, Any]:
    """The rational player over nondeterminism: *all* maximising elements.

    The continuation returns a ``NondetValue``; an element's score is the
    best ``key``-projected value among its alternatives, and elements whose
    continuation result is empty are not scoreable and are excluded.
    Discarding ties here would silently drop equilibria downstream, hence
    every maximiser is kept, in domain order.

    A result of one alternative is scored by one projection rather than a
    ``max`` over a ``map``.  It is the common case: every result that
    :func:`simultaneous_equilibria` passes here holds one payoff.
    """
    elements = _distinct(domain, "nondet_argmax_selection domain")
    if not elements:
        raise ValueError("nondet_argmax_selection requires a nonempty domain")
    eff = nondet_effect()
    project = key if key is not None else (lambda value: value)

    def chooser(k: Callable[[X], NondetValue]) -> NondetValue:
        best = 0
        maximisers: list[X] = []
        for x in elements:
            alternatives = k(x).alternatives
            if alternatives:
                if len(alternatives) == 1:
                    score = project(alternatives[0])
                else:
                    score = max(map(project, alternatives))
                if not maximisers or score > best:
                    best = score
                    maximisers = [x]
                elif score == best:
                    maximisers.append(x)
        return NondetValue(tuple(maximisers))

    return SelectionComputation(chooser, eff)


def fix_selection(domain: Sequence[X]) -> SelectionComputation[X, Any]:
    """The agent that wants to pick a winner: all domain elements that appear
    in their own continuation result (fixpoints), in domain order."""
    elements = _distinct(domain, "fix_selection domain")

    def chooser(k: Callable[[X], NondetValue]) -> NondetValue:
        return NondetValue(tuple(x for x in elements if x in k(x).alternatives))

    return SelectionComputation(chooser, nondet_effect())


def punk_selection(domain: Sequence[X]) -> SelectionComputation[X, Any]:
    """The agent that wants anything but the winner: all domain elements that
    do *not* appear in their own continuation result."""
    elements = _distinct(domain, "punk_selection domain")

    def chooser(k: Callable[[X], NondetValue]) -> NondetValue:
        return NondetValue(tuple(x for x in elements if x not in k(x).alternatives))

    return SelectionComputation(chooser, nondet_effect())


def _validate_sequential(players: Sequence[str], stages: Sequence[Stage]) -> None:
    """Raise ``ValueError`` unless there is a player, every stage has a move,
    no stage lists a move twice and every controller is a player's index."""
    if not players:
        raise ValueError("sequential game needs at least one player")
    for index, stage in enumerate(stages):
        if not stage.moves:
            raise ValueError(f"stage {index} has no moves")
        repeated = _repeated_index(stage.moves)
        if repeated is not None:
            raise ValueError(f"stage {index} repeats move {stage.moves[repeated]!r}")
        if not 0 <= stage.controller < len(players):
            raise ValueError(
                f"stage {index} controller {stage.controller} out of range "
                f"for {len(players)} players"
            )


def backward_induction(game: SequentialGameSpec) -> tuple[tuple[str, ...], UtilityVector]:
    """Solve a sequential game as a product of per-stage argmax players.

    Stage ``i``'s player maximises their own coordinate of the utility vector
    the continuation reports for each candidate move.  The chosen play is the
    product's answer when run with the payoff function as the continuation.
    """
    _validate_sequential(game.players, game.stages)
    selections = [
        argmax_selection(
            stage.moves,
            key=lambda utilities, coord=stage.controller: utilities[coord],
        )
        for stage in game.stages
    ]
    play = run_selection(sel_sequence(selections), game.payoff)
    return play, tuple(game.payoff(play))


def backward_induction_oracle(
    game: SequentialGameSpec,
) -> tuple[tuple[str, ...], UtilityVector]:
    """Independent reference solver: explicit depth-first recursion over the
    game tree with the same first-maximum tie-break."""
    _validate_sequential(game.players, game.stages)
    total_plays = math.prod(len(stage.moves) for stage in game.stages)
    if total_plays > 10**6:
        raise ValueError(f"game tree too large for the oracle: {total_plays} plays")

    def solve(prefix: tuple[str, ...], index: int) -> tuple[tuple[str, ...], UtilityVector]:
        if index == len(game.stages):
            return prefix, tuple(game.payoff(prefix))
        stage = game.stages[index]
        best: tuple[tuple[str, ...], UtilityVector] | None = None
        for move in stage.moves:
            candidate = solve(prefix + (move,), index + 1)
            if best is None or candidate[1][stage.controller] > best[1][stage.controller]:
                best = candidate
        assert best is not None
        return best

    return solve((), 0)


def sum_selections(
    eps: SelectionComputation[X, Any],
    delta: SelectionComputation[Any, Any],
    x_domain: Sequence[Any],
    y_domain: Sequence[Any],
) -> SelectionComputation[tuple[Any, Any], Any]:
    """Combine two nondeterministic players into a selection over move pairs.

    Keep the pair ``(x, y)`` when ``x`` is among the first player's choices
    with ``y`` held fixed, and ``y`` is among the second player's choices
    with ``x`` held fixed, in domain-product order.  This mutual-best-choice
    reading makes argmax players produce exactly the pure Nash equilibria of
    the underlying game; it can legitimately choose nothing (an empty
    alternative set) when no pair is mutually acceptable.  Neither domain
    may repeat an element (``ValueError``).

    The first player's choices depend on ``y`` alone and the second's on
    ``x`` alone, so the chooser runs ``eps`` once per ``y`` and ``delta``
    once per ``x`` into two best-response tables, then scans the pairs
    against them.  Choosers and continuations are pure (the
    ``SelectionComputation`` contract), so every agent gives the same pairs
    as it would if both players ran for each pair.  With argmax players on a
    tie-free m-by-m game the continuation runs 2m^2 times and the players'
    choosers 2m times, against m^3 + m^2 calls and m^2 + m runs when the
    row player ran for every pair.  Membership is tested on the stored alternatives, not
    through a set, so unhashable moves work.
    """
    xs = _distinct(x_domain, "sum_selections x_domain")
    ys = _distinct(y_domain, "sum_selections y_domain")
    eps_chooser = eps.chooser
    delta_chooser = delta.chooser

    def chooser(k: Callable[[tuple[Any, Any]], NondetValue]) -> NondetValue:
        # row_replies[j]: eps's choices against ys[j]; col_replies[i]: delta's against xs[i].
        row_replies = [eps_chooser(lambda xp, y=y: k((xp, y))).alternatives for y in ys]
        col_replies = [delta_chooser(lambda yp, x=x: k((x, yp))).alternatives for x in xs]
        return NondetValue(tuple(
            (x, y)
            for x, col_reply in zip(xs, col_replies)
            for y, row_reply in zip(ys, row_replies)
            if x in row_reply and y in col_reply
        ))

    return SelectionComputation(chooser, nondet_effect())


def simultaneous_equilibria(game: SimultaneousGameSpec) -> tuple[tuple[str, str], ...]:
    """Solve a simultaneous game as the sum of two nondeterministic argmax
    players, the twin of :func:`backward_induction`.

    Each player keeps every move that maximises their own coordinate of the
    payoff against the other's move, and :func:`sum_selections` keeps the pairs that both keep: the
    pure Nash equilibria in domain-product order, as :func:`nash_oracle`
    lists them, or none.
    """
    row_moves, col_moves = game.moves
    eps = nondet_argmax_selection(row_moves, key=lambda utilities: utilities[0])
    delta = nondet_argmax_selection(col_moves, key=lambda utilities: utilities[1])
    payoff = game.payoff
    chosen = run_selection(
        sum_selections(eps, delta, row_moves, col_moves),
        lambda pair: NondetValue((payoff(*pair),)),
    )
    return chosen.alternatives


def nash_oracle(game: SimultaneousGameSpec) -> tuple[tuple[str, str], ...]:
    """All pure-strategy equilibria: pairs where no player gains by a
    unilateral deviation (weak inequality), in domain-product scan order."""
    row_moves, col_moves = game.moves
    equilibria: list[tuple[str, str]] = []
    for x in row_moves:
        for y in col_moves:
            utilities = game.payoff(x, y)
            row_ok = all(game.payoff(x2, y)[0] <= utilities[0] for x2 in row_moves)
            col_ok = all(game.payoff(x, y2)[1] <= utilities[1] for y2 in col_moves)
            if row_ok and col_ok:
                equilibria.append((x, y))
    return tuple(equilibria)

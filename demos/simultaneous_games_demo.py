"""Simultaneous games and voting agents over the nondeterminism effect.

Two argmax players that each keep *every* best response are combined into a
selection over move pairs (``simultaneous_equilibria``); the pairs where both
players are happy with their own component are exactly the pure Nash
equilibria.  The same effect also
hosts the two voting agents: the conformist who wants to pick the winner and
the contrarian who wants anything but.
"""
from __future__ import annotations

from selcc import (
    NondetValue,
    SimultaneousGameSpec,
    fix_selection,
    nash_oracle,
    punk_selection,
    run_selection,
    simultaneous_equilibria,
)


def show(title: str, game: SimultaneousGameSpec) -> None:
    found = simultaneous_equilibria(game)
    print(f"== {title} ==")
    if found:
        for x, y in found:
            print(f"  equilibrium: ({x}, {y}) -> {game.payoff(x, y)}")
    else:
        print("  no pure equilibrium")
    print(f"  oracle agrees: {found == nash_oracle(game)}")
    print()


def main() -> None:
    show(
        "pure coordination",
        SimultaneousGameSpec(
            ("Row", "Col"),
            (("A", "B"), ("A", "B")),
            lambda x, y: (1, 1) if x == y else (0, 0),
        ),
    )
    show(
        "matching pennies",
        SimultaneousGameSpec(
            ("Row", "Col"),
            (("H", "T"), ("H", "T")),
            lambda x, y: (1, -1) if x == y else (-1, 1),
        ),
    )
    show(
        "battle of the sexes",
        SimultaneousGameSpec(
            ("Row", "Col"),
            (("opera", "football"), ("opera", "football")),
            lambda x, y: {
                ("opera", "opera"): (2, 1),
                ("football", "football"): (1, 2),
            }.get((x, y), (0, 0)),
        ),
    )

    # Voting agents: the continuation reports who would win given one vote.
    candidates = ("A", "B", "C")

    def winner_given(vote: str) -> NondetValue:
        ballots = (vote, "A", "B")
        counts = {c: ballots.count(c) for c in candidates}
        best = max(counts.values())
        return NondetValue((next(c for c in candidates if counts[c] == best),))

    conformist = run_selection(fix_selection(candidates), winner_given)
    contrarian = run_selection(punk_selection(candidates), winner_given)
    print("== voting agents (two fixed ballots: A and B) ==")
    print(f"  conformist is happy voting: {conformist.alternatives}")
    print(f"  contrarian is happy voting: {contrarian.alternatives}")


if __name__ == "__main__":
    main()

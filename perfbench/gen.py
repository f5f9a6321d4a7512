"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain data (strings,
JSON text, tuples of ints): the library only ever sees what the workload
builds from this data, and the same seed always gives the same inputs.
"""
from __future__ import annotations

import itertools
import json
import random

CNF_RATIO = 4.26


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench-{workload}-{seed}")


def cnf_clauses(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A random 3-CNF over ``n`` variables at clause/variable ratio 4.26.

    A clause is a tuple of literals: ``v + 1`` for variable ``v`` and
    ``-(v + 1)`` for its negation, over three distinct variables.
    """
    m = round(CNF_RATIO * n)
    return tuple(
        tuple(v + 1 if rng.random() < 0.5 else -(v + 1) for v in rng.sample(range(n), 3))
        for _ in range(m)
    )


def cnf_text(clauses: tuple[tuple[int, ...], ...]) -> str:
    """Render clauses in the ``parse_formula`` syntax, e.g. ``(0|!3|5)&(...)``."""
    return "&".join(
        "(" + "|".join(str(l - 1) if l > 0 else f"!{-l - 1}" for l in clause) + ")"
        for clause in clauses
    )


def payoff_table(
    rng: random.Random, plays: list[tuple[str, ...]], n_players: int, tie_free: bool
) -> dict[tuple[str, ...], tuple[int, ...]]:
    """Integer utilities per play: small random values (ties common), or a
    permutation per player so that no player is ever indifferent."""
    if tie_free:
        columns = [rng.sample(range(len(plays)), len(plays)) for _ in range(n_players)]
        return {play: tuple(col[i] for col in columns) for i, play in enumerate(plays)}
    return {play: tuple(rng.randrange(-4, 5) for _ in range(n_players)) for play in plays}


def sequential_doc(rng: random.Random, branching: int, depth: int) -> str:
    """A two-player sequential game document (JSON text) with ``depth``
    stages of ``branching`` moves and random stage controllers."""
    moves = [f"m{i}" for i in range(branching)]
    stages = [{"controller": rng.randrange(2), "moves": moves} for _ in range(depth)]
    plays = list(itertools.product(moves, repeat=depth))
    table = payoff_table(rng, plays, 2, tie_free=False)
    return json.dumps(
        {
            "type": "sequential",
            "players": ["P0", "P1"],
            "stages": stages,
            "payoffs": {",".join(play): list(u) for play, u in table.items()},
        }
    )


def simultaneous_doc(rng: random.Random, m: int) -> str:
    """A two-player m-by-m simultaneous game document (JSON text).  Payoffs
    are tie-free, so each player has one best reply to every move and the
    players' continuation calls number exactly m**3 + m**2 for any seed."""
    rows = [f"r{i}" for i in range(m)]
    cols = [f"c{i}" for i in range(m)]
    plays = [(x, y) for x in rows for y in cols]
    table = payoff_table(rng, plays, 2, tie_free=True)
    return json.dumps(
        {
            "type": "simultaneous",
            "players": ["Row", "Col"],
            "moves": [rows, cols],
            "payoffs": {",".join(play): list(u) for play, u in table.items()},
        }
    )


def tie_game(
    rng: random.Random, branching: int, depth: int, all_tie: bool
) -> tuple[tuple[int, ...], dict[tuple[int, ...], tuple[int, int]]]:
    """Stage controllers and a payoff table over plays of move indices.

    ``all_tie`` gives every play the same utilities, so every player is
    indifferent everywhere; otherwise utilities are tie-free permutations.
    """
    controllers = tuple(rng.randrange(2) for _ in range(depth))
    plays = list(itertools.product(range(branching), repeat=depth))
    if all_tie:
        u = (rng.randrange(10), rng.randrange(10))
        return controllers, {play: u for play in plays}
    return controllers, payoff_table(rng, plays, 2, tie_free=True)


def big_set(rng: random.Random, n: int) -> tuple[int, ...]:
    """``n`` distinct integers in random order: the alternatives of one
    large nondeterministic value.  Under ``x // 3``, the continuation of the
    big bind, exactly one in ten of them maps onto an output another one
    also gives, so dedup has the same amount of work for every seed."""
    outputs = rng.sample(range(10 * n), n - n // 10)
    twins = rng.sample(outputs, n // 10)
    values = [3 * v for v in outputs] + [3 * v + 1 + rng.randrange(2) for v in twins]
    rng.shuffle(values)
    return tuple(values)

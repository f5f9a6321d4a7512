"""Reference answers computed without selcc.

Each function here re-derives an answer from the generated data alone, so a
check against it does not trust the code under test.
"""
from __future__ import annotations

import functools
import itertools
from typing import Any

Assignment = tuple[bool, ...]


@functools.cache
def _truth_columns(n: int) -> tuple[int, ...]:
    """Bit-parallel truth table: bit ``a`` of column ``v`` says whether
    variable ``v`` is True in assignment ``a``.  Variable 0 is the most
    significant bit of ``a``, so a larger ``a`` is a lexicographically larger
    assignment (False < True)."""
    return tuple(
        sum(1 << a for a in range(1 << n) if (a >> (n - 1 - v)) & 1) for v in range(n)
    )


def sat_reference(clauses: tuple[tuple[int, ...], ...], n: int) -> tuple[Assignment, bool]:
    """The answer ``sat_product`` must give, and whether the CNF is satisfiable.

    The product of boolean probes picks True wherever the rest can still be
    satisfied, which yields the lexicographically largest satisfying
    assignment, or all-False when there is none.
    """
    columns = _truth_columns(n)
    everything = (1 << (1 << n)) - 1
    satisfying = everything
    for clause in clauses:
        covered = 0
        for literal in clause:
            column = columns[abs(literal) - 1]
            covered |= column if literal > 0 else everything ^ column
        satisfying &= covered
    if not satisfying:
        return (False,) * n, False
    a = satisfying.bit_length() - 1
    return tuple(bool((a >> (n - 1 - v)) & 1) for v in range(n)), True


def satisfies(clauses: tuple[tuple[int, ...], ...], bits: Assignment) -> bool:
    return all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses)


def render_assignment(bits: Assignment) -> str:
    """The ``demo-sat`` rendering of an assignment: ``[True,False]``."""
    return "[" + ",".join(str(b) for b in bits) + "]"


def spe_play(
    controllers: tuple[int, ...], branching: int, table: dict[tuple[int, ...], tuple[int, int]]
) -> tuple[int, ...]:
    """The subgame-perfect play of a tie-free game, by explicit recursion."""

    def solve(prefix: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, int]]:
        if len(prefix) == len(controllers):
            return prefix, table[prefix]
        c = controllers[len(prefix)]
        return max((solve(prefix + (m,)) for m in range(branching)), key=lambda r: r[1][c])

    return solve(())[0]


def all_plays(branching: int, depth: int) -> tuple[tuple[int, ...], ...]:
    """Every play in product order: what all-tie players must keep."""
    return tuple(itertools.product(range(branching), repeat=depth))


def dedup_reference(values: list[Any]) -> tuple[Any, ...]:
    """First-occurrence dedup, as ``NondetValue`` promises."""
    return tuple(dict.fromkeys(values))

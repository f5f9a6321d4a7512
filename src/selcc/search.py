"""SAT solving as a product of boolean selections.

A boolean formula is a total predicate over fixed-length assignments.  The
solver builds one boolean probe per variable and takes their iterated product;
running the product with the formula itself as the continuation makes the
probes search: each probe asks "does the rest of the assignment work out if I
pick True?" and picks True exactly when it does.  If the formula is
satisfiable the product returns a witness; otherwise it returns the all-False
assignment.

:func:`sat_callcc` is the instrumented variant: the probes run over the trace
effect, log each choice, and invoke the search's current continuation with a
dummy assignment once per variable, exposing the re-execution pattern of the
product.  Under strict evaluation the dummy must be a real assignment (the
all-False one) rather than an empty list, so dummy log lines read
``Continuation called with [False,False,...]``; everything else about the
action sequence is unchanged.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .callcc import callcc_selection
from .core import (
    SelectionComputation,
    run_selection,
    sel_bind,
    sel_lift,
    sel_map,
    sel_sequence,
)
from .effects import EffectInstance, identity_effect, tell, trace_effect

Assignment = tuple[bool, ...]


@dataclass(frozen=True, slots=True)
class BooleanFormula:
    """A total boolean predicate over assignments of a fixed arity."""

    arity: int
    evaluate: Callable[[Assignment], bool]


def format_assignment(bits: Sequence[bool]) -> str:
    """Render an assignment as ``[True,False,True]`` (no spaces)."""
    return "[" + ",".join("True" if b else "False" for b in bits) + "]"


def bool_probe(eff: EffectInstance | None = None) -> SelectionComputation[bool, bool]:
    """The boolean selection that answers with the continuation's value at True.

    Over the identity effect this chooses True exactly when the continuation
    approves it, and False otherwise — the single-variable search primitive.
    """
    eff = eff if eff is not None else identity_effect()

    def chooser(k: Callable[[bool], object]) -> object:
        return k(True)

    return SelectionComputation(chooser, eff)


def sat_product(formula: BooleanFormula) -> Assignment:
    """Solve a formula by running the product of boolean probes against it.

    Returns a satisfying assignment whenever one exists; the all-False
    assignment otherwise.  Deterministic and pure.  The product re-runs each
    chosen branch, as the paper's bind does (``rerun=True``), so every formula
    costs exactly ``2^n - 1`` evaluations, satisfiable or not.  With
    :func:`sel_bind`'s memo a satisfiable formula would stop early, and the
    cost would depend on where its first witness lies.
    """
    probes = [bool_probe() for _ in range(formula.arity)]
    return run_selection(sel_sequence(probes, rerun=True), formula.evaluate)


def sat_callcc(formula: BooleanFormula) -> tuple[list[str], Assignment]:
    """Solve a formula with the instrumented, trace-logging search.

    Each per-variable step probes a boolean, logs ``b = <value>, ``, invokes
    the current continuation of the whole search with the all-False dummy
    assignment (logging ``Continuation called with [False,...]``), and yields
    the probed value.  Full assignments reaching the continuation are logged
    as ``Continuation called with [...]``.  Returns the log and the final
    assignment, which always equals :func:`sat_product`'s answer.
    """
    if formula.arity < 1:
        raise ValueError("sat_callcc requires at least one variable")
    eff = trace_effect()
    dummy: Assignment = (False,) * formula.arity

    def step(kk: Callable[[Assignment], SelectionComputation]) -> SelectionComputation:
        def per_variable(_: int) -> SelectionComputation:
            return sel_bind(
                bool_probe(eff),
                lambda b: sel_bind(
                    sel_lift(tell(f"b = {b}, "), eff),
                    lambda _: sel_map(kk(dummy), lambda _: b),
                ),
            )

        return sel_sequence([per_variable(i) for i in range(formula.arity)], eff)

    program = sel_bind(
        callcc_selection(step, eff),
        lambda bits: sel_map(
            sel_lift(tell(f"Continuation called with {format_assignment(bits)}"), eff),
            lambda _: bits,
        ),
    )

    outcome = run_selection(program, lambda bits: eff.unit(formula.evaluate(bits)))
    return list(outcome.log), outcome.value


def sat_oracle(formula: BooleanFormula) -> Assignment | None:
    """Exhaustive reference solver: first satisfying assignment or None.

    Scans assignments in lexicographic order with False < True; refuses
    arities above 20 where the scan stops being a sane oracle.
    """
    if formula.arity > 20:
        raise ValueError(f"sat_oracle handles arity <= 20, got {formula.arity}")
    for bits in itertools.product((False, True), repeat=formula.arity):
        if formula.evaluate(bits):
            return bits
    return None

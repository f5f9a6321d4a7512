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
from .core import SelectionComputation, run_selection, sel_bind, sel_lift, sel_sequence
from .effects import EffectInstance, TraceValue, identity_effect, trace_effect

Assignment = tuple[bool, ...]


@dataclass(frozen=True, slots=True)
class BooleanFormula:
    """A total boolean predicate over assignments of a fixed arity."""

    arity: int
    evaluate: Callable[[Assignment], bool]


def format_assignment(bits: Sequence[bool]) -> str:
    """Render an assignment as ``[True,False,True]`` (no spaces)."""
    return "[" + ",".join(["True" if b else "False" for b in bits]) + "]"


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
    assignment otherwise.  Deterministic and pure.

    This is the paper's iterated product of ``formula.arity``
    :func:`bool_probe` selections over identity, whose bind runs each chosen
    branch a second time, with identity's bind applied.  A probe answers
    its continuation's value at True, so stage ``i`` answers
    ``solve(prefix + (evaluate(solve(prefix + (True,))),))`` and the last
    stage ``prefix + (evaluate(prefix + (True,)),)``, and every formula
    costs exactly ``2^n - 1`` evaluations, satisfiable or not.
    :func:`sel_sequence`'s memo would serve the second runs, but running the
    probes through it is slower than this unfolded product.  So once the
    benchmark re-pins sat's evaluation count, the memo is to be written into
    this product, still unfolded: stage ``i`` scores ``solve(prefix +
    (True,))`` and, if the formula chooses True there, answers that run
    instead of solving the same prefix again.
    """
    evaluate, last = formula.evaluate, formula.arity - 1
    if last < 0:
        return ()

    def solve(prefix: Assignment) -> Assignment:
        if len(prefix) == last:
            return prefix + (evaluate(prefix + (True,)),)
        return solve(prefix + (evaluate(solve(prefix + (True,))),))

    return solve(())


def sat_callcc(formula: BooleanFormula) -> tuple[list[str], Assignment]:
    """Solve a formula with the instrumented, trace-logging search.

    Each per-variable step probes a boolean, logs ``b = <value>, ``, invokes
    the current continuation of the whole search with the all-False dummy
    assignment (logging ``Continuation called with [False,...]``), and yields
    the probed value.  Full assignments reaching the continuation are logged
    as ``Continuation called with [...]``.  Returns the log and the final
    assignment, which always equals :func:`sat_product`'s answer.

    The formula runs once per genuine assignment that reaches the
    continuation and once at the dummy: the reified call at the dummy runs
    it on its first run only (see :func:`selcc.callcc._callcc_term`), so an
    unsatisfiable formula costs ``2^n`` evaluations, not ``3 * (2^n - 1)``.
    The log is unchanged: each run still logs its dummy line.

    Neither half of the step after a probe reads its continuation: the
    ``b = <value>, `` line is a lifted log, and the reified call at the
    dummy ignores its own.  So by the lift law, ``lift(m >>= f) = lift m >>=
    lift . f``, that step is the lift of one trace value, the probe line and
    then the dummy call's log, answering the probed value.  The search runs
    the reified call once and builds that value once per probed value,
    instead of binding the line into a map of the call on every run.  The
    per-variable stage is the paper's bind of the probe into that lift,
    unfolded: the probe scores ``b`` by binding the value into the
    continuation, and the chosen ``b`` answers the value again.
    """
    outcome = _sat_callcc_outcome(formula)
    return list(outcome.log), outcome.value


def _sat_callcc_outcome(formula: BooleanFormula) -> TraceValue[Assignment]:
    """:func:`sat_callcc`'s search, answering with its trace value, whose log
    is a tuple; ``demo-sat`` writes that tuple without a list copy."""
    if formula.arity < 1:
        raise ValueError("sat_callcc requires at least one variable")
    eff = trace_effect()
    dummy: Assignment = (False,) * formula.arity

    def logged(bits: Assignment) -> SelectionComputation:
        # ``sel_map(sel_lift(tell(line), eff), lambda _: bits)`` in one step:
        # a lifted log never calls its continuation, so it is the lift of its
        # value.
        line = f"Continuation called with {format_assignment(bits)}"
        return sel_lift(TraceValue((line,), bits), eff)

    # Everything below that depends on neither the probed value nor the
    # assignment is built once per search: the dummy's answer here, and in
    # ``step`` the run of the reified call at the dummy, the after-probe
    # trace values of the bool singletons and the per-variable stage.
    dummy_answer = logged(dummy)

    def step(kk: Callable[[Assignment], SelectionComputation]) -> SelectionComputation:
        # The reified call reads no continuation, so one run on any gives its
        # trace value.
        resumed = run_selection(kk(dummy), eff.unit)

        def after(b: object) -> TraceValue:
            # ``sel_bind(sel_lift(tell(line), eff), lambda _: sel_map(kk(dummy),
            # lambda _: b))`` as the trace value it lifts (see :func:`sat_callcc`).
            return TraceValue((f"b = {b}, ",) + resumed.log, b)

        # Shared only for True and False themselves (by ``is``), so a formula
        # that answers 0 or 1 still logs ``b = 0, `` or ``b = 1, ``.
        after_true, after_false = after(True), after(False)

        def after_probe(b: object) -> TraceValue:
            if b is True:
                return after_true
            if b is False:
                return after_false
            return after(b)

        # The paper's ``sel_bind(probe, lambda b: sel_lift(after_probe(b),
        # eff))`` unfolded: a lift's chooser answers its value whatever its
        # continuation, so running the chosen branch again is ``after_probe``.
        probe, bind = bool_probe(eff).chooser, eff.bind

        def chooser(k: Callable[[bool], TraceValue]) -> TraceValue:
            return bind(probe(lambda b: bind(after_probe(b), k)), after_probe)

        return sel_sequence([SelectionComputation(chooser, eff)] * formula.arity, eff)

    def answer(bits: Assignment) -> SelectionComputation:
        return dummy_answer if bits is dummy else logged(bits)

    program = sel_bind(callcc_selection(step, eff), answer)
    return run_selection(program, lambda bits: eff.unit(formula.evaluate(bits)))


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

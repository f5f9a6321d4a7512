"""Selection and quantifier computations: two monads over a base effect.

A *quantifier computation* over ``X`` with result type ``R`` is a function
``(X -> Eff(R)) -> Eff(R)``: given a continuation for the rest of the program
it produces the final result (the continuation-passing-style monad).

A *selection computation* has type ``(X -> Eff(R)) -> Eff(X)``: given the same
continuation it produces the *intermediate* value at ``X`` instead.  Binding
selection computations re-runs continuations, which is what makes products of
selections search, and is the source of every interesting behaviour in
:mod:`selcc.search` and :mod:`selcc.games`.

The selection monad's bind is :func:`sel_bind`, which serves the paper's
second run of the chosen branch from a memo; its functor action is
:func:`sel_map`, a bind into a unit done by the effect's own ``map`` (a
selection monad over a base monad uses that monad's map; Hedges, *Monad
transformers for backtracking search*, MSFP 2014).  :func:`sel_product` and
:func:`sel_sequence` are Escardó & Oliva's binary and iterated products of
selection functions (*Selection functions, bar recursion and backward
induction*, MSCS 2010).  Each function's docstring states its design and
the law by which it equals the definition it replaces.

:class:`Monad` bundles each monad's functions into one value, so code written
once over it (the call/cc dialogue, the law drivers) serves both monads.

Both computation types are generic over the pluggable effects from
:mod:`selcc.effects`; the type parameters are static metadata only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterable, NamedTuple, TypeVar

from .effects import EffectInstance, identity_effect

X = TypeVar("X")
Y = TypeVar("Y")
R = TypeVar("R")

Continuation = Callable[[Any], Any]


@dataclass(frozen=True, slots=True)
class SelectionComputation(Generic[X, R]):
    """A computation that picks an intermediate value once told how it is used.

    ``chooser(k)`` returns ``Eff(X)``: the chosen value(s) at ``X``, where
    ``k : X -> Eff(R)`` scores/continues each candidate.  Immutable; running is
    a pure function of the continuation.
    """

    chooser: Callable[[Continuation], Any]
    effect: EffectInstance


@dataclass(frozen=True, slots=True)
class QuantifierComputation(Generic[X, R]):
    """A computation in continuation-passing style: ``runner(k)`` is ``Eff(R)``."""

    runner: Callable[[Continuation], Any]
    effect: EffectInstance


def sel_unit(x: X, eff: EffectInstance | None = None) -> SelectionComputation[X, Any]:
    """The selection that ignores its continuation and yields ``x``."""
    eff = eff if eff is not None else identity_effect()
    unit = eff.unit

    def chooser(k: Continuation) -> Any:
        return unit(x)

    return SelectionComputation(chooser, eff)


def sel_bind(
    eps: SelectionComputation[X, R],
    f: Callable[[X], SelectionComputation[Y, R]],
) -> SelectionComputation[Y, R]:
    """Sequence a selection into a dependent family of selections.

    Given the final continuation ``k`` at ``Y``, the continuation handed to
    ``eps`` scores a candidate ``x`` by running ``f(x)`` against ``k`` and
    feeding the resulting intermediate value back into ``k``.  The chosen ``x``
    is then run through ``f`` once more to produce the intermediate value at
    ``Y``.  That second pass is served from a memo that lives for one
    ``chooser(k)`` call: ``k`` is fixed within it and ``f`` and every chooser
    are pure, so a scored candidate's ``f(x).chooser(k)`` is exactly what a
    second run would return.  Scoring is not memoised: a chooser that scores
    the same candidate twice runs its branch twice.  Effects are values (a
    trace log, a set of alternatives), so the effect of the chosen branch
    still enters the result once through the scoring bind and once through
    the outer bind, as in the paper's definition.  The memo is keyed by object identity, not equality,
    because ``f`` may tell equal candidates such as ``1`` and ``True`` apart;
    each entry keeps its candidate alive so its id cannot be reused.
    """
    eff = eps.effect
    bind_m = eff.bind
    eps_chooser = eps.chooser

    def chooser(k: Continuation) -> Any:
        runs: dict[int, tuple[Any, Any]] = {}

        def extended(x: Any) -> Any:
            inner = f(x).chooser(k)
            runs[id(x)] = (x, inner)
            return bind_m(inner, k)

        def chosen(x: Any) -> Any:
            run = runs.get(id(x))
            return run[1] if run is not None else f(x).chooser(k)

        return bind_m(eps_chooser(extended), chosen)

    return SelectionComputation(chooser, eff)


def quant_unit(x: X, eff: EffectInstance | None = None) -> QuantifierComputation[X, Any]:
    """The quantifier that immediately applies the continuation to ``x``."""
    eff = eff if eff is not None else identity_effect()

    def runner(k: Continuation) -> Any:
        return k(x)

    return QuantifierComputation(runner, eff)


def quant_bind(
    phi: QuantifierComputation[X, R],
    f: Callable[[X], QuantifierComputation[Y, R]],
) -> QuantifierComputation[Y, R]:
    """Sequence a quantifier into a dependent family: run ``phi`` with the
    continuation that forwards each candidate through ``f`` and on to ``k``."""
    phi_runner = phi.runner

    def runner(k: Continuation) -> Any:
        def extended(x: Any) -> Any:
            return f(x).runner(k)

        return phi_runner(extended)

    return QuantifierComputation(runner, phi.effect)


def quant_lift(m: Any, eff: EffectInstance) -> QuantifierComputation[Any, Any]:
    """Embed a bare effect value as a quantifier: perform it, then continue."""

    def runner(k: Continuation) -> Any:
        return eff.bind(m, k)

    return QuantifierComputation(runner, eff)


def sel_lift(m: Any, eff: EffectInstance) -> SelectionComputation[Any, Any]:
    """Embed a bare effect value as a selection: it ignores the continuation.

    The effect is performed (once) when an enclosing bind sequences it, which
    keeps lifted actions from being re-run by downstream re-evaluation.
    """

    def chooser(k: Continuation) -> Any:
        return m

    return SelectionComputation(chooser, eff)


def to_quantifier(eps: SelectionComputation[X, R]) -> QuantifierComputation[X, R]:
    """The morphism from selections to quantifiers.

    ``runner(k)`` asks ``eps`` to choose under ``k`` and then applies ``k`` to
    the choice: the final result of using the selected value.  This preserves
    unit and bind (see :mod:`selcc.laws`).
    """
    bind_m = eps.effect.bind
    eps_chooser = eps.chooser

    def runner(k: Continuation) -> Any:
        return bind_m(eps_chooser(k), k)

    return QuantifierComputation(runner, eps.effect)


def invoke_coercion(phi: QuantifierComputation[R, R]) -> SelectionComputation[R, R]:
    """Reinterpret a quantifier whose value and result types coincide.

    When ``X = R`` both computation shapes are ``(R -> Eff(R)) -> Eff(R)``, so
    the underlying function is reused unchanged: the final result is treated
    as the intermediate one.
    """
    return SelectionComputation(phi.runner, phi.effect)


def sel_map(
    eps: SelectionComputation[X, R],
    g: Callable[[X], Y],
) -> SelectionComputation[Y, R]:
    """Apply a plain function to a selection's choice.

    The continuation ``k`` at ``Y`` scores a candidate ``x`` as ``k(g(x))``,
    and the chosen ``x`` comes out as ``g(x)`` through the effect's ``map``,
    which is exactly its bind into its unit.  By the effect's left-unit law
    this equals ``sel_bind(eps, lambda x: sel_unit(g(x), eps.effect))``, but
    it keeps no memo: a unit branch has nothing to run again.  For the
    nondet effect the left-unit law, and so this equality, holds on
    duplicate-free ``NondetValue`` results of ``k``, which is the type's
    invariant; a continuation that breaks it is scored with its duplicates
    here and without them by the bind.  The caveat is in the scoring only:
    the map dedups as the bind does.
    """
    eff = eps.effect
    map_m = eff.map
    eps_chooser = eps.chooser

    def chooser(k: Continuation) -> Any:
        return map_m(eps_chooser(lambda x: k(g(x))), g)

    return SelectionComputation(chooser, eff)


def sel_product(
    eps: SelectionComputation[X, R],
    delta: SelectionComputation[Y, R],
) -> SelectionComputation[tuple[X, Y], R]:
    """The pairing of two selections: Escardó & Oliva's binary product.

    For each candidate ``x`` the inner selection chooses ``y`` under the
    continuation ``lambda y: k((x, y))``, and ``eps`` chooses ``x`` knowing
    that ``y`` follows (``b(x) = δ(λy. p(x,y))``, ``a = ε(λx. p(x, b(x)))``).
    This is the monadic definition, ``eps`` bound into ``delta`` bound into
    a unit at the pair, with the inner bind into a unit written as the
    :func:`sel_map` it equals.
    """
    return sel_bind(eps, lambda x: sel_map(delta, lambda y: (x, y)))


def sel_sequence(
    computations: Iterable[SelectionComputation[X, R]],
    eff: EffectInstance | None = None,
) -> SelectionComputation[tuple[X, ...], R]:
    """The iterated product: a selection over tuples, one slot per input.

    It is the right fold of binary products, each step ``sel_bind(c, lambda
    x: sel_map(rest, lambda xs: (x,) + xs))``, so later computations are
    inner: they see earlier choices through the continuation.  Each run of
    its chooser builds one runner per stage over that run's ``k``,
    innermost first.  Stage ``i``'s runner gives the whole tuples that
    start with its argument ``prefix``; the prefix is an argument because a
    reified continuation may score out of nesting order.  The last runner
    maps its choice to ``prefix + (x,)`` with the effect's ``map``, which is
    binding it into the unit at ``prefix + (x,)``, and scores a candidate
    as ``k(prefix + (x,))``: by the left-unit law that is binding that unit
    into ``k``, for nondet on duplicate-free results of ``k``, as in
    :func:`sel_map`.  This equals the fold, without a map and its bind per
    stage, because ``bind(map(m, prefix +), k) == bind(m, lambda xs:
    k(prefix + xs))`` (for nondet because ``prefix +`` is injective, so
    dedup commutes with it).

    The runners are *scored*: ``run(prefix)`` answers the result and
    ``run(prefix, True)`` answers ``(result, score)``, where ``score`` is
    ``bind(result, k)``.  An inner runner scores ``x`` by the next
    runner's score at ``prefix + (x,)`` and answers with the result of its
    choice from a memo, as in :func:`sel_bind`.  Where every chosen ``x``
    was scored, its score is the bind of its chooser's answer into those
    scores, which is ``bind(result, k)`` by associativity; where one was not
    (a probe that answers False without trying it), its score is
    ``bind(result, k)``.  The last runner records each ``k(prefix + (x,))``
    it makes, and its score binds its chooser's answer into those records,
    calling ``k`` only for a choice it never scored.  A runner computes a
    score only when its caller uses it: the top-level run and the run of a
    chosen but unscored candidate ask for none, so no ``k`` call is added.
    Answers, logs and chooser runs are the fold's, and the continuation
    calls are the fold's with its re-scores left out: over players that
    score every candidate, ``k`` runs once per leaf.  A scored runner reads
    its records as soon as ``bind`` returns, so it needs the strict bind
    that :class:`~selcc.effects.EffectInstance` states.

    When the shared effect is ``identity_effect()`` itself (``is``, not
    ``==``), the runners apply instead: a stage scores a candidate as
    ``k(inner)`` and looks its choice up in the memo, and the last stage
    answers ``prefix + (last(lambda x: k(prefix + (x,))),)``.  Identity's
    bind and map are application, so each is the fold's runner with the
    bind or map applied: the same answers, continuation calls and chooser
    runs.  These
    runners re-score as the fold does, because over identity a call of
    ``k`` costs less than the memo entry that would replace it.  The depth
    at the continuation stays three frames per stage (the runner, the
    chooser and the scoring continuation).  Any other effect, an
    ``EffectInstance`` whose bind is application included, keeps the
    generic runners.

    The empty sequence yields the unit at the empty tuple; ``eff`` is only
    consulted in that case.  Otherwise every stage binds, and the last maps,
    with the first computation's effect, so the computations must share it:
    a computation whose effect differs raises :class:`ValueError`.
    """
    comps = list(computations)
    if not comps:
        return sel_unit((), eff if eff is not None else identity_effect())
    effect = comps[0].effect
    for index, comp in enumerate(comps):
        if comp.effect != effect:
            raise ValueError(
                f"computation {index} has effect {comp.effect.name!r}, "
                f"but computation 0 has {effect.name!r}: sel_sequence needs one shared effect"
            )
    choosers = [comp.chooser for comp in comps]
    last = choosers.pop()

    if effect is identity_effect():
        # Identity bind and map are application, so each runner applies
        # where the generic one binds: the same calls, without the bind.

        def stage(
            chooser: Callable[[Continuation], Any],
            after: Callable[[tuple[Any, ...]], Any],
            k: Continuation,
        ) -> Callable[[tuple[Any, ...]], Any]:
            def run(prefix: tuple[Any, ...]) -> Any:
                runs: dict[int, tuple[Any, Any]] = {}

                def extended(x: Any) -> Any:
                    inner = after(prefix + (x,))
                    runs[id(x)] = (x, inner)
                    return k(inner)

                x = chooser(extended)
                entry = runs.get(id(x))
                return entry[1] if entry is not None else after(prefix + (x,))

            return run

        def last_stage(k: Continuation) -> Callable[[tuple[Any, ...]], Any]:
            def run(prefix: tuple[Any, ...]) -> Any:
                return prefix + (last(lambda x: k(prefix + (x,))),)

            return run

    else:
        bind_m = effect.bind
        map_m = effect.map

        def stage(
            chooser: Callable[[Continuation], Any],
            after: Callable[..., Any],
            k: Continuation,
        ) -> Callable[..., Any]:
            # A scored runner: run(prefix) answers the result and
            # run(prefix, True) answers (result, bind(result, k)).
            def run(prefix: tuple[Any, ...], scored: bool = False) -> Any:
                runs: dict[int, tuple[Any, Any, Any]] = {}
                missed = False

                def extended(x: Any) -> Any:
                    result, score = after(prefix + (x,), True)
                    runs[id(x)] = (x, result, score)
                    return score

                def chosen(x: Any) -> Any:
                    nonlocal missed
                    entry = runs.get(id(x))
                    if entry is not None:
                        return entry[1]
                    missed = True
                    return after(prefix + (x,))

                choice = chooser(extended)
                result = bind_m(choice, chosen)
                if not scored:
                    return result
                if missed:
                    return result, bind_m(result, k)
                return result, bind_m(choice, lambda x: runs[id(x)][2])

            return run

        def last_stage(k: Continuation) -> Callable[..., Any]:
            def run(prefix: tuple[Any, ...], scored: bool = False) -> Any:
                if not scored:
                    return map_m(last(lambda x: k(prefix + (x,))), lambda x: prefix + (x,))
                scores: dict[int, tuple[Any, Any]] = {}

                def extended(x: Any) -> Any:
                    score = k(prefix + (x,))
                    scores[id(x)] = (x, score)
                    return score

                def score_of(x: Any) -> Any:
                    entry = scores.get(id(x))
                    return entry[1] if entry is not None else k(prefix + (x,))

                choice = last(extended)
                return map_m(choice, lambda x: prefix + (x,)), bind_m(choice, score_of)

            return run

    def top(k: Continuation) -> Any:
        run = last_stage(k)
        for chooser in reversed(choosers):
            run = stage(chooser, run, k)
        return run(())

    return SelectionComputation(top, effect)


def run_selection(eps: SelectionComputation[X, R], k: Continuation) -> Any:
    """Apply a selection's chooser to a continuation: the chosen ``Eff(X)``."""
    return eps.chooser(k)


def run_quantifier(phi: QuantifierComputation[X, R], k: Continuation) -> Any:
    """Apply a quantifier's runner to a continuation: the final ``Eff(R)``."""
    return phi.runner(k)


# A NamedTuple, not a dataclass: its class builds several times faster, and
# every caller imports it (ROADMAP, "Settled").
class Monad(NamedTuple):
    """One of the two computation monads as a value.

    ``unit(x, eff)``, ``bind(m, f)``, ``lift(m, eff)`` and ``run(m, k)`` are
    the monad's own functions, and ``computation`` is the class that wraps a
    raw function of the continuation.  ``carrier(domain, results)`` is where
    a computation over ``domain`` with continuation results in ``results``
    answers: ``domain`` (X) for a selection, ``results`` (R) for a
    quantifier.  A computation of either monad is a raw function of the
    continuation, and their shapes differ only in this.  Code written over the record names no monad:
    :data:`SELECTION` and :data:`QUANTIFIER` are its two instances.
    """

    name: str
    unit: Callable[..., Any]
    bind: Callable[..., Any]
    lift: Callable[[Any, EffectInstance], Any]
    run: Callable[[Any, Continuation], Any]
    computation: type
    carrier: Callable[[Any, Any], Any]


SELECTION = Monad(
    "selection", sel_unit, sel_bind, sel_lift, run_selection, SelectionComputation,
    lambda domain, results: domain,
)
QUANTIFIER = Monad(
    "quantifier", quant_unit, quant_bind, quant_lift, run_quantifier, QuantifierComputation,
    lambda domain, results: results,
)

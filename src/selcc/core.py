"""Selection and quantifier computations: two monads over a base effect.

A *quantifier computation* over ``X`` with result type ``R`` is a function
``(X -> Eff(R)) -> Eff(R)``: given a continuation for the rest of the program
it produces the final result (the continuation-passing-style monad).

A *selection computation* has type ``(X -> Eff(R)) -> Eff(X)``: given the same
continuation it produces the *intermediate* value at ``X`` instead.  Binding
selection computations re-runs continuations, which is what makes products of
selections search, and is the source of every interesting behaviour in
:mod:`selcc.search` and :mod:`selcc.games`.

The paper's selection bind runs the chosen branch twice: once to score it and
once more to produce the result.  :func:`sel_bind` serves the second run from
a memo scoped to one chooser call, so a chosen branch that was scored is not
run again.  The memo serves only that second run: scoring is not memoised,
so a chooser that scores the same candidate twice runs its branch twice.
The result is the same value the second run would return, so traces and
answers are unchanged; only the evaluation counts drop (a binary n-stage
game makes ``2^(n+1) - 1`` payoff calls instead of ``3^n``).
``rerun=True`` keeps the paper's second run; :func:`selcc.search.sat_product`
uses it so that its cost does not depend on the formula.

A bind into a unit has no branch to run twice.  :func:`sel_map` is that
case on its own: the functor action, with no memo and no second run.  The
binary product :func:`sel_product` is built from it as in Escardó &
Oliva's binary product of selection functions (*Selection functions, bar
recursion and backward induction*, MSCS 2010): the inner selection is only
mapped into the pair, and only the outer one is bound.  The iterated
product :func:`sel_sequence` is the fold of these binary products, run as
one chooser that passes the chosen prefix down to the next stage; by the
effect laws, binding a prefix-mapped value into ``k`` is binding the value
into ``k`` after the prefix, so it equals the fold in every answer, log and
continuation call, without a map and its bind per stage.  Its last stage
scores a candidate by calling ``k`` directly, by the left-unit law, with
:func:`sel_map`'s nondet caveat.

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
    *,
    rerun: bool = False,
) -> SelectionComputation[Y, R]:
    """Sequence a selection into a dependent family of selections.

    Given the final continuation ``k`` at ``Y``, the continuation handed to
    ``eps`` scores a candidate ``x`` by running ``f(x)`` against ``k`` and
    feeding the resulting intermediate value back into ``k``.  The chosen ``x``
    is then run through ``f`` once more to produce the intermediate value at
    ``Y``.  That second pass is served from a memo that lives for one
    ``chooser(k)`` call: ``k`` is fixed within it and ``f`` and every chooser
    are pure, so a scored candidate's ``f(x).chooser(k)`` is exactly what a
    second run would return.  Effects are values (a trace log, a set of
    alternatives), so the effect of the chosen branch still enters the result
    once through the scoring bind and once through the outer bind, as in the
    paper's definition.  The memo is keyed by object identity, not equality,
    because ``f`` may tell equal candidates such as ``1`` and ``True`` apart;
    each entry keeps its candidate alive so its id cannot be reused.

    ``rerun=True`` is the paper's bind as written: no memo, and the chosen
    ``x`` runs through ``f`` a second time.  The result is the same; only the
    continuation calls of the chosen branch are made twice.
    """
    eff = eps.effect
    bind_m = eff.bind
    eps_chooser = eps.chooser

    if rerun:

        def rerun_chooser(k: Continuation) -> Any:
            def extended(x: Any) -> Any:
                return bind_m(f(x).chooser(k), k)

            def chosen(x: Any) -> Any:
                return f(x).chooser(k)

            return bind_m(eps_chooser(extended), chosen)

        return SelectionComputation(rerun_chooser, eff)

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
    and the chosen ``x`` comes out as ``g(x)``.  By the effect's left-unit
    law this equals ``sel_bind(eps, lambda x: sel_unit(g(x), eps.effect))``,
    but it keeps no memo and takes no ``rerun``: a unit branch has nothing
    to run again.  For the nondet effect the left-unit law, and so this
    equality, holds on duplicate-free ``NondetValue`` results of ``k``, which
    is the type's invariant; a continuation that breaks it is scored with
    its duplicates here and without them by the bind.
    """
    eff = eps.effect
    bind_m = eff.bind
    unit = eff.unit
    eps_chooser = eps.chooser

    def mapped(x: Any) -> Any:
        return unit(g(x))

    def chooser(k: Continuation) -> Any:
        return bind_m(eps_chooser(lambda x: k(g(x))), mapped)

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
    *,
    rerun: bool = False,
) -> SelectionComputation[tuple[X, ...], R]:
    """The iterated product: a selection over tuples, one slot per input.

    It is the right fold of binary products, each step ``sel_bind(c, lambda
    x: sel_map(rest, lambda xs: (x,) + xs))``, so later computations are
    inner: they see earlier choices through the continuation.  It runs as
    one chooser that passes the chosen prefix down.  ``run_from(i, prefix,
    k)`` gives the whole tuples that start with ``prefix``: stage ``i``
    scores a candidate ``x`` by binding ``run_from(i + 1, prefix + (x,),
    k)`` into ``k`` and answers with the run of its choice, from a memo as
    in :func:`sel_bind` or, under ``rerun=True``, run again.  At the last
    stage that run is the unit at ``prefix + (x,)``, built in place, with no
    memo, and a candidate is scored as ``k(prefix + (x,))``: by the left-unit
    law that is binding the unit into ``k``, for nondet on duplicate-free
    results of ``k``, as in :func:`sel_map`.  This equals the fold because
    ``bind(map(m, prefix +), k) == bind(m, lambda xs: k(prefix + xs))`` (for
    nondet because ``prefix +`` is injective, so dedup commutes with it):
    answers, logs, continuation calls and chooser runs are the same, without
    a map and its bind per stage.

    The empty sequence yields the unit at the empty tuple; ``eff`` is only
    consulted in that case.  Otherwise every stage binds with the first
    computation's effect, so the computations must share it: a computation
    whose effect differs raises :class:`ValueError`.
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
    bind_m = effect.bind
    unit = effect.unit
    choosers = [comp.chooser for comp in comps]
    final = len(comps) - 1

    def run_from(i: int, prefix: tuple[Any, ...], k: Continuation) -> Any:
        if i == final:

            def chosen(x: Any) -> Any:
                return unit(prefix + (x,))

            def extended(x: Any) -> Any:
                return k(prefix + (x,))

        elif rerun:

            def chosen(x: Any) -> Any:
                return run_from(i + 1, prefix + (x,), k)

            def extended(x: Any) -> Any:
                return bind_m(run_from(i + 1, prefix + (x,), k), k)

        else:
            runs: dict[int, tuple[Any, Any]] = {}

            def extended(x: Any) -> Any:
                inner = run_from(i + 1, prefix + (x,), k)
                runs[id(x)] = (x, inner)
                return bind_m(inner, k)

            def chosen(x: Any) -> Any:
                run = runs.get(id(x))
                return run[1] if run is not None else run_from(i + 1, prefix + (x,), k)

        return bind_m(choosers[i](extended), chosen)

    return SelectionComputation(lambda k: run_from(0, (), k), effect)


def run_selection(eps: SelectionComputation[X, R], k: Continuation) -> Any:
    """Apply a selection's chooser to a continuation: the chosen ``Eff(X)``."""
    return eps.chooser(k)


def run_quantifier(phi: QuantifierComputation[X, R], k: Continuation) -> Any:
    """Apply a quantifier's runner to a continuation: the final ``Eff(R)``."""
    return phi.runner(k)


# A NamedTuple, not a dataclass: its class is built in 0.2 ms instead of 1.2 ms
# (2-core Linux x86-64, Python 3.11), and every caller imports it.
class Monad(NamedTuple):
    """One of the two computation monads as a value.

    ``unit(x, eff)``, ``bind(m, f)``, ``lift(m, eff)`` and ``run(m, k)`` are
    the monad's own functions, and ``computation`` is the class that wraps a
    raw function of the continuation.  Code written over the record names no
    monad: :data:`SELECTION` and :data:`QUANTIFIER` are its two instances.
    """

    name: str
    unit: Callable[..., Any]
    bind: Callable[..., Any]
    lift: Callable[[Any, EffectInstance], Any]
    run: Callable[[Any, Continuation], Any]
    computation: type


SELECTION = Monad("selection", sel_unit, sel_bind, sel_lift, run_selection, SelectionComputation)
QUANTIFIER = Monad(
    "quantifier", quant_unit, quant_bind, quant_lift, run_quantifier, QuantifierComputation
)

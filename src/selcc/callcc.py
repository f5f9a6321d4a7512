"""Call-with-current-continuation for both computation monads.

Both operators are the *same* untyped term, :func:`_callcc_term`: the handler
receives the current continuation reified as a computation that discards its
own continuation and short-circuits to the outer one.  That computation never
reads its own continuation, so its value is fixed once it is built: it runs
the outer continuation on its first run and hands the same value back on
later runs, as a lazy language shares it.  Answers and logs are those of the
term as written; only the outer continuation runs less often.  What differs
between the two operators is only the bind operator the result is later
composed with — under the quantifier monad control never returns to the
handler once the continuation is invoked, while under the selection monad the
handler resumes and a coroutine-like dialogue emerges.  The dialogue program
is likewise written once over the :class:`~selcc.core.Monad` record; its two
instances and their demos make the difference visible through the trace
effect.
"""
from __future__ import annotations

from typing import Any, Callable

from .core import QUANTIFIER, SELECTION, Monad, QuantifierComputation, SelectionComputation
from .effects import EffectInstance, identity_effect, tell, trace_effect


def _callcc_term(
    monad: Monad, handler: Callable[[Callable[[Any], Any]], Any], eff: EffectInstance | None
) -> Any:
    """The untyped call/cc: ``λk1. handler(λx. λk2. k1(x))(k1)``.

    ``monad`` only wraps the raw functions in its computation class and runs
    the handler's result; the term itself is shared by both public wrappers.

    ``k1(x)`` does not mention ``k2``, so each reified computation runs it
    on its first run and hands the same value back on later runs, as a lazy
    language shares it (GHC's full laziness floats it out of the ``λk2``).
    The value is held by that computation alone, and a run that raises
    holds nothing.  ``k1`` is pure, so answers and logs are unchanged; only
    its calls drop.  Whether the handler resumes after an invocation, the
    difference between the two monads, is unchanged too: it is the bind's.
    """
    effect = eff if eff is not None else identity_effect()

    def run(k1: Callable[[Any], Any]) -> Any:
        def reified(x: Any) -> Any:
            answer: list[Any] = []

            def computation(k2: Callable[[Any], Any]) -> Any:
                if not answer:
                    answer.append(k1(x))
                return answer[0]

            return monad.computation(computation, effect)

        return monad.run(handler(reified), k1)

    return monad.computation(run, effect)


def callcc_quantifier(
    handler: Callable[[Callable[[Any], QuantifierComputation]], QuantifierComputation],
    eff: EffectInstance | None = None,
) -> QuantifierComputation:
    """call/cc for quantifier computations.

    ``handler`` receives the current continuation as a function from values to
    quantifier computations; invoking it abandons the rest of the handler.
    ``eff`` must match the effect the handler's computations run over
    (identity by default).
    """
    return _callcc_term(QUANTIFIER, handler, eff)


def callcc_selection(
    handler: Callable[[Callable[[Any], SelectionComputation]], SelectionComputation],
    eff: EffectInstance | None = None,
) -> SelectionComputation:
    """call/cc for selection computations: the same term at a different type.

    The reified continuation's intermediate type must equal the final result
    type, since invoking it hands back the *final* answer as an intermediate
    value.  Unlike the quantifier flavour, handler code after an invocation
    runs again once the chosen value flows back through the enclosing binds.
    """
    return _callcc_term(SELECTION, handler, eff)


def _dialogue(monad: Monad, name: str) -> Any:
    """The dialogue program over the trace effect, in either monad.

    Logs "In <name>", enters a handler that logs and invokes the current
    continuation with 0, then logs "In continuation" and returns the value
    plus one.  The handler then logs "Still in handler" and returns its
    value plus one; whether that line ever runs depends only on ``bind``.
    """
    eff = trace_effect()
    unit, bind = monad.unit, monad.bind

    def log(line: str) -> Any:
        return monad.lift(tell(line), eff)

    def handler(kk: Callable[[int], Any]) -> Any:
        return bind(
            log("In handler"),
            lambda _: bind(
                kk(0),
                lambda m: bind(log("Still in handler"), lambda _: unit(m + 1, eff)),
            ),
        )

    return bind(
        log(f"In {name}"),
        lambda _: bind(
            _callcc_term(monad, handler, eff),
            lambda n: bind(log("In continuation"), lambda _: unit(n + 1, eff)),
        ),
    )


def foo_computation() -> QuantifierComputation:
    """The dialogue in the quantifier monad.

    Invoking the current continuation abandons the handler, so "Still in
    handler" is never logged.
    """
    return _dialogue(QUANTIFIER, "foo")


def bar_computation() -> SelectionComputation:
    """The same program as :func:`foo_computation` in the selection monad.

    Here invoking the current continuation does *not* abandon the handler:
    after the continuation runs, control comes back and "Still in handler"
    is logged, then the continuation runs once more with the updated value.
    """
    return _dialogue(SELECTION, "bar")


def _demo(monad: Monad, program: Any, outer: Callable[[int], int] | None) -> tuple[list[str], int]:
    eff = trace_effect()
    k = eff.unit if outer is None else lambda n: eff.unit(outer(n))
    outcome = monad.run(program, k)
    return list(outcome.log), outcome.value


def demo_foo(outer: Callable[[int], int] | None = None) -> tuple[list[str], int]:
    """Run the quantifier dialogue against the outer continuation ``outer``
    (the unit, returning the result unchanged, by default).

    Returns the accumulated log lines and the final integer result.
    """
    return _demo(QUANTIFIER, foo_computation(), outer)


def demo_bar(outer: Callable[[int], int] | None = None) -> tuple[list[str], int]:
    """Run the selection dialogue against the outer continuation ``outer``
    (the unit, returning the result unchanged, by default).

    Returns the accumulated log lines and the chosen integer result.
    """
    return _demo(SELECTION, bar_computation(), outer)

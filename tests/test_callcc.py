"""Tests for call-with-current-continuation in both computation flavours."""
from __future__ import annotations

import itertools
import runpy
from collections import Counter
from pathlib import Path

import pytest

from selcc import (
    TraceValue,
    callcc_quantifier,
    callcc_selection,
    demo_bar,
    demo_foo,
    quant_bind,
    quant_lift,
    quant_unit,
    run_quantifier,
    run_selection,
    sel_bind,
    sel_lift,
    sel_unit,
    tell,
    to_quantifier,
    trace_effect,
)
from selcc import callcc
from selcc.core import QUANTIFIER, SELECTION

from helpers import source_mutant, unshared_callcc_term


class TestSharedDefinition:
    def test_both_flavours_delegate_to_one_term(self):
        quant_names = callcc_quantifier.__code__.co_names
        sel_names = callcc_selection.__code__.co_names
        assert "_callcc_term" in quant_names
        assert "_callcc_term" in sel_names


def _fork(monad, eff):
    """A trace computation that runs its continuation at 0, then 1, then 0
    again and keeps their logs in that order.  A selection answers the
    index of the first largest value, a quantifier the three values."""

    def run(k):
        outs = [k(i) for i in (0, 1, 0)]
        values = tuple(out.value for out in outs)
        log = tuple(itertools.chain.from_iterable(out.log for out in outs))
        return TraceValue(log, monad.carrier(values.index(max(values)), values))

    return monad.computation(run, eff)


def _run_forked_program(term, monad):
    """Run, over the trace effect, a program that forks into ``term``'s
    call/cc three times; its handler reifies the continuation at "left" and
    at "right" and forks into those, running "left" twice per fork.

    Returns the outcome, the arguments of every continuation call in order
    and the number of handler calls.  The continuation logs its argument
    and answers a string's length, or an int plus one."""
    eff = trace_effect()
    bind = monad.bind
    handler_calls = [0]
    seen = []

    def log(line):
        return monad.lift(tell(line), eff)

    def handler(kk):
        handler_calls[0] += 1
        branches = (kk("left"), kk("right"))
        return bind(_fork(monad, eff), lambda i: bind(log(f"branch {i}"), lambda _: branches[i]))

    def k(v):
        seen.append(v)
        return TraceValue((f"k {v!r}",), len(v) if isinstance(v, str) else v + 1)

    program = bind(
        _fork(monad, eff), lambda j: bind(log(f"outer {j}"), lambda _: term(monad, handler, eff))
    )
    return monad.run(program, k), seen, handler_calls[0]


def _assert_runs_each_reified_continuation_once(term) -> None:
    """``term`` answers and logs as the unshared term does, in both monads,
    and calls the continuation once per reified computation."""
    for monad in (SELECTION, QUANTIFIER):
        want, want_seen, want_handlers = _run_forked_program(unshared_callcc_term, monad)
        got, seen, handlers = _run_forked_program(term, monad)
        assert got == want, monad.name
        assert handlers == want_handlers >= 3, monad.name
        # Each handler call reifies one computation at "left" and one at "right".
        assert Counter(v for v in seen if isinstance(v, str)) == {
            "left": handlers,
            "right": handlers,
        }, monad.name
        # The unshared term runs "left" again on every run.
        assert want_seen.count("left") > handlers, monad.name


class TestReifiedContinuationRunsOnce:
    """The reified computation ``λk2. k1(x)`` never reads ``k2``, so its
    value is fixed once it is built; the term runs ``k1(x)`` on its first
    run only, as a lazy language shares it."""

    def test_answers_and_logs_as_the_unshared_term_in_both_monads(self):
        _assert_runs_each_reified_continuation_once(callcc._callcc_term)

    def test_one_answer_per_run_of_the_term_is_caught(self):
        per_run = source_mutant(
            callcc._callcc_term,
            ("            answer: list[Any] = []\n\n", ""),
            (
                "        def reified(x: Any) -> Any:\n",
                "        answer: list[Any] = []\n\n        def reified(x: Any) -> Any:\n",
            ),
        )
        with pytest.raises(AssertionError):
            _assert_runs_each_reified_continuation_once(per_run)

    @pytest.mark.parametrize("monad", [SELECTION, QUANTIFIER], ids=lambda m: m.name)
    def test_an_exception_caches_nothing(self, monad):
        eff = trace_effect()
        captured = []
        calls = [0]

        def handler(kk):
            captured.append(kk("x"))
            return monad.unit(0, eff)

        def k1(v):
            if v == "x":
                calls[0] += 1
                if calls[0] == 1:
                    raise RuntimeError("first call")
            return TraceValue(("ran",), v)

        monad.run(callcc._callcc_term(monad, handler, eff), k1)
        (reified,) = captured
        with pytest.raises(RuntimeError):
            monad.run(reified, None)
        assert monad.run(reified, None) == TraceValue(("ran",), "x")
        assert monad.run(reified, None) == TraceValue(("ran",), "x")
        assert calls[0] == 2


class TestQuantifierCallcc:
    def test_captured_continuation_escapes(self):
        # the handler jumps straight out via the reified continuation
        phi = callcc_quantifier(lambda kk: kk(42))
        assert run_quantifier(phi, lambda x: x + 1) == 43

    def test_handler_without_capture_is_plain_unit(self):
        phi = callcc_quantifier(lambda _: quant_unit(7))
        assert run_quantifier(phi, lambda x: x + 1) == 8

    def test_code_after_capture_never_runs(self):
        eff = trace_effect()

        def handler(kk):
            return quant_bind(
                kk(5),
                lambda m: quant_bind(
                    quant_lift(tell("after the jump"), eff),
                    lambda _: quant_unit(m, eff),
                ),
            )

        result = run_quantifier(callcc_quantifier(handler, eff), eff.unit)
        assert result.value == 5
        assert "after the jump" not in result.log

    def test_no_capture_equals_handler_on_unused_argument(self):
        def handler(kk):
            return quant_unit(11)

        phi = callcc_quantifier(handler)
        direct = handler(None)
        for k in (lambda x: x, lambda x: x * 3, lambda _: 0):
            assert run_quantifier(phi, k) == run_quantifier(direct, k)


class TestSelectionCallcc:
    def test_handler_without_capture_is_plain_unit(self):
        eps = callcc_selection(lambda _: sel_unit(7))
        assert run_selection(eps, lambda x: x + 1) == 7

    def test_handler_resumes_after_invoking_the_continuation(self):
        # the reified continuation returns the outer continuation's answer
        # as an ordinary value, and the handler keeps computing with it
        def handler(kk):
            return sel_bind(kk(0), lambda m: sel_unit(m + 1))

        eps = callcc_selection(handler)
        outer = lambda x: x + 10
        # kk(0) hands back outer(0) = 10, so the handler chooses 11 ...
        assert run_selection(eps, outer) == 11
        # ... and feeding the choice through the outer continuation gives 21
        assert run_quantifier(to_quantifier(eps), outer) == 21

    def test_code_after_capture_still_runs(self):
        eff = trace_effect()

        def handler(kk):
            return sel_bind(
                kk(5),
                lambda m: sel_bind(
                    sel_lift(tell("after the jump"), eff),
                    lambda _: sel_unit(m, eff),
                ),
            )

        result = run_selection(callcc_selection(handler, eff), eff.unit)
        assert result.value == 5
        assert "after the jump" in result.log

    def test_no_capture_equals_handler_on_unused_argument(self):
        def handler(kk):
            return sel_unit(9)

        eps = callcc_selection(handler)
        direct = handler(None)
        for k in (lambda x: x, lambda x: x * 3, lambda _: 0):
            assert run_selection(eps, k) == run_selection(direct, k)


class TestDialogueDemos:
    def test_first_dialogue_log_and_result(self):
        log, result = demo_foo()
        assert log == ["In foo", "In handler", "In continuation"]
        assert result == 1

    def test_first_dialogue_never_returns_to_the_handler(self):
        log, result = demo_foo()
        assert "Still in handler" not in log
        # the result is the captured value 0 pushed through the +1 continuation
        assert result == 0 + 1

    def test_second_dialogue_log_and_result(self):
        log, result = demo_bar()
        assert log == [
            "In bar",
            "In handler",
            "In continuation",
            "Still in handler",
            "In continuation",
        ]
        assert result == 3

    def test_second_dialogue_visits_the_continuation_twice(self):
        log, _ = demo_bar()
        assert log.count("In continuation") == 2
        assert log.index("Still in handler") > log.index("In continuation")

    def test_demo_output_is_stable_across_runs(self):
        assert demo_foo() == demo_foo()
        assert demo_bar() == demo_bar()

    def test_dialogue_demo_script_output(self, capsys):
        script = Path(__file__).resolve().parents[1] / "demos" / "dialogue_demo.py"
        runpy.run_path(str(script), run_name="__main__")
        assert capsys.readouterr().out.splitlines() == [
            "== quantifier flavour: the jump never comes back ==",
            "  In foo",
            "  In handler",
            "  In continuation",
            "  result: 1",
            "",
            "== selection flavour: the handler resumes after the jump ==",
            "  In bar",
            "  In handler",
            "  In continuation",
            "  Still in handler",
            "  In continuation",
            "  result: 3",
            "",
            "== selection flavour, doubling continuation ==",
            "  In bar",
            "  In handler",
            "  In continuation",
            "  Still in handler",
            "  In continuation",
            "  result: 4",
            "",
            "== quantifier flavour, doubling continuation ==",
            "  In foo",
            "  In handler",
            "  In continuation",
            "  result: 2",
            "",
        ]

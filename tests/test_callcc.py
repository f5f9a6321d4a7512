"""Tests for call-with-current-continuation in both computation flavours."""
from __future__ import annotations

import runpy
from pathlib import Path

from selcc import (
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


class TestSharedDefinition:
    def test_both_flavours_delegate_to_one_term(self):
        quant_names = callcc_quantifier.__code__.co_names
        sel_names = callcc_selection.__code__.co_names
        assert "_callcc_term" in quant_names
        assert "_callcc_term" in sel_names


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

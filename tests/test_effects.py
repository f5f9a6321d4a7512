"""Tests for the three effect instances: identity, trace, nondeterminism."""
from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from selcc import (
    NondetValue,
    TraceValue,
    identity_effect,
    nondet_effect,
    tell,
    trace_effect,
)


class TestIdentityEffect:
    def test_unit_returns_value(self):
        eff = identity_effect()
        assert eff.unit(5) == 5
        assert eff.unit("a") == "a"

    def test_bind_applies_function(self):
        eff = identity_effect()
        assert eff.bind(3, lambda x: x + 1) == 4

    def test_instance_is_shared(self):
        assert identity_effect() is identity_effect()
        assert identity_effect().name == "Identity"


class TestTraceEffect:
    def test_unit_has_empty_log(self):
        assert trace_effect().unit(7) == TraceValue((), 7)

    def test_tell_logs_one_line(self):
        assert tell("In foo") == TraceValue(("In foo",), None)
        assert tell("") == TraceValue(("",), None)
        assert tell("b = True, ") == TraceValue(("b = True, ",), None)

    def test_bind_concatenates_logs_left_then_right(self):
        eff = trace_effect()
        left = TraceValue(("first",), 1)
        result = eff.bind(left, lambda x: TraceValue(("second",), x + 1))
        assert result == TraceValue(("first", "second"), 2)

    def test_bind_threads_value_through_tell(self):
        eff = trace_effect()
        result = eff.bind(
            eff.unit(1),
            lambda x: eff.bind(tell("x=1"), lambda _: eff.unit(x)),
        )
        assert result == TraceValue(("x=1",), 1)

    def test_instance_is_shared(self):
        assert trace_effect() is trace_effect()
        assert trace_effect().name == "Trace"

    @given(
        st.lists(st.text(max_size=5), max_size=4),
        st.lists(st.text(max_size=5), max_size=4),
        st.lists(st.text(max_size=5), max_size=4),
        st.integers(),
    )
    def test_bind_is_associative_on_logs(self, log_a, log_b, log_c, value):
        eff = trace_effect()
        m = TraceValue(tuple(log_a), value)

        def f(x):
            return TraceValue(tuple(log_b), x + 1)

        def g(x):
            return TraceValue(tuple(log_c), x * 2)

        nested = eff.bind(eff.bind(m, f), g)
        flat = eff.bind(m, lambda x: eff.bind(f(x), g))
        assert nested == flat
        assert nested.log == tuple(log_a) + tuple(log_b) + tuple(log_c)


class TestNondetEffect:
    def test_unit_is_singleton(self):
        assert nondet_effect().unit(5) == NondetValue((5,))

    def test_bind_flattens_and_dedups_in_order(self):
        eff = nondet_effect()
        result = eff.bind(
            NondetValue((1, 2)), lambda x: NondetValue((x, x + 1))
        )
        assert result == NondetValue((1, 2, 3))

    def test_bind_on_empty_propagates(self):
        eff = nondet_effect()
        result = eff.bind(NondetValue(()), lambda x: NondetValue((x,)))
        assert result == NondetValue(())

    def test_dedup_keeps_first_occurrence_order(self):
        eff = nondet_effect()
        result = eff.bind(
            NondetValue((3, 1)), lambda x: NondetValue((x, 1, 3))
        )
        assert result.alternatives == (3, 1)

    def test_dedup_uses_structural_equality(self):
        eff = nondet_effect()
        result = eff.bind(
            NondetValue(((1, 2),)), lambda pair: NondetValue((pair, (1, 2)))
        )
        assert result.alternatives == ((1, 2),)

    def test_dedup_of_unhashable_alternatives(self):
        eff = nondet_effect()
        result = eff.bind(
            NondetValue(([1], [2])), lambda xs: NondetValue((xs, [1], xs + [0]))
        )
        assert result.alternatives == ([1], [1, 0], [2], [2, 0])

    def test_dedup_of_mixed_alternatives_compares_with_equality(self):
        # Unhashable alternatives mixed in change nothing: 1, True and 1.0
        # are equal, so only the first of them is kept.
        eff = nondet_effect()
        mixed = eff.bind(NondetValue((1, True, [3], 1.0, [3])), eff.unit)
        hashed = eff.bind(NondetValue((1, True, 1.0)), eff.unit)
        assert mixed.alternatives == (1, [3])
        assert hashed.alternatives == (1,)

    def test_instance_is_shared(self):
        assert nondet_effect() is nondet_effect()
        assert nondet_effect().name == "Nondet"

    @given(
        st.lists(st.integers(min_value=-3, max_value=3), max_size=5),
        st.integers(min_value=-2, max_value=2),
    )
    def test_bind_never_produces_duplicates(self, alternatives, shift):
        eff = nondet_effect()
        result = eff.bind(
            NondetValue(tuple(alternatives)),
            lambda x: NondetValue((x, x + shift)),
        )
        seen = list(result.alternatives)
        assert len(seen) == len(set(seen))

    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=4))
    def test_bind_with_unit_is_dedup_only(self, alternatives):
        eff = nondet_effect()
        result = eff.bind(NondetValue(tuple(alternatives)), eff.unit)
        expected = []
        for x in alternatives:
            if x not in expected:
                expected.append(x)
        assert result.alternatives == tuple(expected)

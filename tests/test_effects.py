"""Tests for the three effect instances: identity, trace, nondeterminism."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selcc import (
    NondetValue,
    TraceValue,
    identity_effect,
    nondet_effect,
    quant_lift,
    run_quantifier,
    tell,
    trace_effect,
)
from selcc import effects


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


def _scan_dedup(items):
    """The reference dedup: keep an item unless it, or an item equal to it,
    was kept before."""
    kept = []
    for item in items:
        if item not in kept:
            kept.append(item)
    return tuple(kept)


class _EqualsThree:
    """Unhashable, and equal to the int 3."""

    __hash__ = None

    def __eq__(self, other):
        return isinstance(other, _EqualsThree) or other == 3

    def __repr__(self):
        return "_EqualsThree()"


_NAN = float("nan")
_EQUALS_THREE = _EqualsThree()

# Mixed so that both dedup paths run: values equal across types (0, False,
# 0.0, -0.0; 1, True, 1.0), one NaN object that equals only itself, and
# unhashable lists and an unhashable value equal to the int 3.
_ALTERNATIVES = st.lists(
    st.one_of(
        st.integers(min_value=-1, max_value=3),
        st.booleans(),
        st.floats(min_value=-1, max_value=3) | st.sampled_from([0.0, -0.0, 1.0, 3.0]),
        st.tuples(st.integers(0, 1)) | st.tuples(st.integers(0, 1), st.booleans()),
        st.text(alphabet="ab", max_size=2),
        st.lists(st.integers(0, 1), max_size=2),
        st.sampled_from([_NAN, _EQUALS_THREE]),
    ),
    max_size=8,
)


@given(_ALTERNATIVES)
@example([1, True, 1.0])
@example([3, 1, 3.0])
@example([_NAN, 1, _NAN])
@example([3, _EQUALS_THREE, [3], _EQUALS_THREE])
@example([_EQUALS_THREE, 3])
@settings(database=None)  # broken dedups fail it on purpose; save nothing
def _assert_bind_dedups_like_a_scan(xs):
    eff = nondet_effect()
    got = eff.bind(NondetValue(tuple(xs)), eff.unit).alternatives
    expected = _scan_dedup(xs)
    # By identity: (1,) == (True,), so equality would not see which was kept.
    assert len(got) == len(expected), (xs, got)
    assert all(a is b for a, b in zip(got, expected)), (xs, got)


def _keeps_the_last_occurrence(items):
    return tuple(reversed(_scan_dedup(list(reversed(items)))))


def _builds_a_set(items):
    try:
        return tuple(set(items))
    except TypeError:
        return _scan_dedup(items)


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

    def test_bind_with_unit_is_dedup_only(self):
        _assert_bind_dedups_like_a_scan()

    @pytest.mark.parametrize("broken", [_keeps_the_last_occurrence, _builds_a_set])
    def test_a_broken_dedup_is_caught(self, broken, monkeypatch):
        monkeypatch.setattr(effects, "_dedup", broken)
        with pytest.raises(AssertionError):
            _assert_bind_dedups_like_a_scan()


class _CountsEquality:
    """A hashable alternative whose hash is its key; it counts its ``==``
    calls in the shared one-element list ``calls``."""

    __slots__ = ("key", "calls")

    def __init__(self, key, calls):
        self.key = key
        self.calls = calls

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        self.calls[0] += 1
        return isinstance(other, _CountsEquality) and self.key == other.key


class TestNondetDedupIsLinear:
    def test_distinct_hashable_alternatives_make_few_equality_calls(self):
        # A list scan makes n(n-1)/2 calls here, about 12.5 million.
        calls = [0]
        alternatives = tuple(_CountsEquality(i, calls) for i in range(5_000))
        eff = nondet_effect()
        result = eff.bind(NondetValue(alternatives), eff.unit)
        assert calls[0] <= 5_000
        assert len(result.alternatives) == 5_000
        assert all(a is b for a, b in zip(result.alternatives, alternatives))

    def test_a_big_quantifier_bind_keeps_first_occurrences(self):
        # One input in ten maps to a shared output.
        def k(x):
            return NondetValue(("shared",) if x % 10 == 0 else (x,))

        inputs = range(200_000)
        result = run_quantifier(
            quant_lift(NondetValue(tuple(inputs)), nondet_effect()), k
        )
        expected = tuple(dict.fromkeys(y for x in inputs for y in k(x).alternatives))
        assert len(expected) == 180_001
        assert result.alternatives == expected

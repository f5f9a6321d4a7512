"""Tests for the three effect instances: identity, trace, nondeterminism;
the value types they build; and the frozen records of every module."""
from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
import random
from typing import Generic, TypeVar

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selcc
from selcc import (
    BooleanFormula,
    EffectInstance,
    NondetValue,
    QuantifierComputation,
    SelectionComputation,
    SequentialGameSpec,
    SimultaneousGameSpec,
    Stage,
    TraceValue,
    identity_effect,
    nondet_effect,
    quant_lift,
    quant_unit,
    run_quantifier,
    sel_unit,
    tell,
    trace_effect,
)
from selcc import effects
from selcc.laws import _EFFECTS, LawReport


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


# Each base effect's law universe over the carrier range(n).
_UNIVERSES = {fixture.effect.name: fixture.values for fixture in _EFFECTS}


def _map_law_counts(eff: EffectInstance) -> tuple[int, int]:
    """Cases and failures of ``map(m, g) == bind(m, lambda a: unit(g(a)))``
    for every ``m`` in the effect's universe over ``range(n)`` and every ``g``
    from ``range(n)`` into ``range(r)``, non-injective ones included, for
    ``n, r`` in 1..3."""
    values = _UNIVERSES[eff.name]
    cases = failures = 0
    for n, r in itertools.product((1, 2, 3), repeat=2):
        for table in itertools.product(range(r), repeat=n):
            g = table.__getitem__
            for m in values(n):
                cases += 1
                failures += eff.map(m, g) != eff.bind(m, lambda a: eff.unit(g(a)))
    return cases, failures


def _trace_map_dropping_the_log(m, g):
    return TraceValue((), g(m.value))


def _nondet_map_without_dedup(m, g):
    return NondetValue(tuple(map(g, m.alternatives)))


_BUILT_IN = [identity_effect(), trace_effect(), nondet_effect()]
_MAP_CASES = {"Identity": 142, "Trace": 284, "Nondet": 658}


class TestEffectMap:
    @pytest.mark.parametrize("eff", _BUILT_IN, ids=lambda eff: eff.name)
    def test_map_is_bind_into_unit_on_the_whole_universe(self, eff):
        assert _map_law_counts(eff) == (_MAP_CASES[eff.name], 0)

    @pytest.mark.parametrize(
        "base, broken_map, failures",
        [
            # Every case whose m has a line in its log.
            (trace_effect(), _trace_map_dropping_the_log, 142),
            # Every case where g sends two alternatives of m to one value.
            (nondet_effect(), _nondet_map_without_dedup, 276),
        ],
        ids=["trace-dropping-the-log", "nondet-without-dedup"],
    )
    def test_a_broken_map_is_caught(self, base, broken_map, failures):
        broken = EffectInstance(base.name, base.unit, base.bind, broken_map)
        assert _map_law_counts(broken) == (_MAP_CASES[base.name], failures)

    @given(_ALTERNATIVES)
    @example([1, True, 1.0])
    @example([3, _EQUALS_THREE, [3], _EQUALS_THREE])
    def test_nondet_map_keeps_the_objects_bind_keeps(self, xs):
        eff = nondet_effect()
        m = NondetValue(tuple(xs))
        mapped = eff.map(m, lambda x: x).alternatives
        bound = eff.bind(m, eff.unit).alternatives
        assert len(mapped) == len(bound)
        assert all(a is b for a, b in zip(mapped, bound))


class TestThreeArgumentEffects:
    """An effect built from a name, a unit and a bind alone, as the
    benchmark's counting effect in ``perfbench/tracing.py`` is."""

    @pytest.mark.parametrize("base", _BUILT_IN, ids=lambda eff: eff.name)
    def test_the_derived_map_is_bind_into_unit(self, base):
        eff = EffectInstance(base.name, base.unit, base.bind)
        assert _map_law_counts(eff) == (_MAP_CASES[base.name], 0)

    def test_the_derived_map_binds_once_per_call(self):
        base = nondet_effect()
        binds = []

        def bind(m, f):
            binds.append(m)
            return base.bind(m, f)

        eff = EffectInstance(base.name, base.unit, bind)
        m = NondetValue((1, 2, 3))
        assert eff.map(m, lambda x: x // 2) == NondetValue((0, 1))
        assert binds == [m]

    @pytest.mark.parametrize("base", _BUILT_IN, ids=lambda eff: eff.name)
    def test_equality_ignores_the_map(self, base):
        derived = EffectInstance(base.name, base.unit, base.bind)
        assert derived.map is not base.map
        assert derived == base and hash(derived) == hash(base)
        assert EffectInstance(base.name, base.unit, base.bind, lambda m, g: m) == base
        assert EffectInstance(base.name, base.unit, lambda m, f: f(m)) != base


# What bind and map hand their function, by effect name.
_ALTERNATIVES_OF = {
    "Identity": lambda m: [m],
    "Trace": lambda m: [m.value],
    "Nondet": lambda m: list(m.alternatives),
}


def _deferred_calls(eff: EffectInstance) -> tuple[int, int]:
    """Cases and failures of: once ``bind(m, f)`` or ``map(m, g)`` returns,
    ``f`` or ``g`` has been applied to each of ``m``'s alternatives, in
    order, for every ``m`` in the effect's universe over ``range(3)``."""
    alternatives_of = _ALTERNATIVES_OF[eff.name]
    cases = failures = 0
    for m in _UNIVERSES[eff.name](3):
        for apply, wrap in ((eff.bind, eff.unit), (eff.map, lambda a: a)):
            calls = []
            apply(m, lambda a: calls.append(a) or wrap(a))
            cases += 1
            failures += calls != alternatives_of(m)
    return cases, failures


class _Deferred:
    """A nondet value whose alternatives are computed when first read."""

    def __init__(self, compute):
        self._compute = compute

    @property
    def alternatives(self):
        return self._compute()


_STRICT_CASES = {"Identity": 6, "Trace": 12, "Nondet": 32}


class TestBindIsStrict:
    """``EffectInstance``'s contract that ``sel_sequence``'s scored runners
    rely on: ``bind`` and ``map`` apply their function to every alternative
    before they return."""

    @pytest.mark.parametrize("eff", _BUILT_IN, ids=lambda eff: eff.name)
    def test_bind_and_map_apply_f_before_they_return(self, eff):
        assert _deferred_calls(eff) == (_STRICT_CASES[eff.name], 0)

    @pytest.mark.parametrize("base", _BUILT_IN, ids=lambda eff: eff.name)
    def test_the_derived_map_applies_g_before_it_returns(self, base):
        eff = EffectInstance(base.name, base.unit, base.bind)
        assert _deferred_calls(eff) == (_STRICT_CASES[base.name], 0)

    def test_a_lazy_bind_is_caught(self):
        # Its values read as the nondet bind's, but only once read: every
        # case whose m has an alternative fails, for bind and derived map.
        base = nondet_effect()
        lazy = EffectInstance(
            base.name, base.unit, lambda m, f: _Deferred(lambda: base.bind(m, f).alternatives)
        )
        m = NondetValue((2, 0))
        assert lazy.bind(m, lambda a: base.unit(a + 1)).alternatives == (3, 1)
        assert _deferred_calls(lazy) == (32, 30)


A = TypeVar("A")


# What ``TraceValue`` and ``NondetValue`` are without their hand-written
# ``__init__``: plain frozen slots dataclasses with the same fields.
@dataclasses.dataclass(frozen=True, slots=True)
class _PlainTrace(Generic[A]):
    log: tuple[str, ...]
    value: A


@dataclasses.dataclass(frozen=True, slots=True)
class _PlainNondet(Generic[A]):
    alternatives: tuple[A, ...]


_PLAIN = {TraceValue: _PlainTrace, NondetValue: _PlainNondet}

# Values equal across types, a NaN that equals only itself, and unhashable
# ones (lists, a dict, a value equal to the int 3).
_FIELD_VALUES = (0, 1, True, False, 1.0, 3, _NAN, "a", "", None, (1, True), [1], [], {"k": 1}, _EQUALS_THREE)


def _seeded_fields(cls, seed: int, count: int) -> list[tuple]:
    rng = random.Random(seed)
    if cls is TraceValue:
        return [
            (tuple(rng.choices(("a", "b", ""), k=rng.randint(0, 2))), rng.choice(_FIELD_VALUES))
            for _ in range(count)
        ]
    return [(tuple(rng.choices(_FIELD_VALUES, k=rng.randint(0, 3))),) for _ in range(count)]


def _outcome(fn, *args):
    """``fn(*args)``'s value, or the type of the exception it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return "raises", type(exc)


def _shown(obj) -> str:
    return repr(obj).removeprefix(type(obj).__name__)


def _observe(obj) -> list:
    """Everything a caller can see of a value, its class name left out."""
    names = [f.name for f in dataclasses.fields(obj)]
    seen = [
        _outcome(_shown, obj),
        _outcome(hash, obj),
        *(_outcome(getattr, obj, name) for name in names),
        *(_outcome(setattr, obj, name, 0) for name in names + ["other"]),
        *(_outcome(delattr, obj, name) for name in names + ["other"]),
    ]
    for remake in (dataclasses.replace, copy.copy, lambda v: pickle.loads(pickle.dumps(v))):
        made = _outcome(remake, obj)
        if made[0] == "raises":
            seen.append(made)
        else:
            seen += [type(made[1]) is type(obj), _outcome(made[1].__eq__, obj), _outcome(_shown, made[1])]
    return seen


def _assert_behaves_like_a_plain_dataclass(cls, seed: int, count: int = 150) -> None:
    """Values built from seeded fields store exactly those fields, stay
    frozen, and look and compare as the plain dataclass twin's do."""
    plain = _PLAIN[cls]
    fields = _seeded_fields(cls, seed, count)
    values, twins = [cls(*f) for f in fields], [plain(*f) for f in fields]
    names = [f.name for f in dataclasses.fields(cls)]
    for args, value, twin in zip(fields, values, twins):
        assert _observe(value) == _observe(twin), args
        assert [_outcome(getattr, value, name) for name in names] == [("value", arg) for arg in args]
        # Only the fields: on Python 3.11 a frozen slots dataclass raises
        # TypeError for any other name, as ``_observe`` shows for both.
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
    for i, j in itertools.product(range(count), range(0, count, 7)):
        assert (values[i] == values[j]) == (twins[i] == twins[j]), (fields[i], fields[j])
        assert (values[i] != values[j]) == (twins[i] != twins[j]), (fields[i], fields[j])


def _stores_the_value_in_the_log_slot(self, log, value):
    effects._set_log(self, value)
    effects._set_value(self, value)


def _skips_the_value(self, log, value):
    effects._set_log(self, log)


def _skips_the_alternatives(self, alternatives):
    pass


class TestNondetUnit:
    """The nondet unit builds its value without calling ``__init__``."""

    def test_the_unit_is_the_one_alternative_value(self):
        for a in _FIELD_VALUES:
            unit, built = effects._nondet_unit(a), NondetValue((a,))
            assert type(unit) is NondetValue
            assert unit == built
            assert _outcome(hash, unit) == _outcome(hash, built)
            assert repr(unit) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                unit.alternatives = ()


class TestTraceBindAndMap:
    """The trace bind and map build their values without calling ``__init__``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_they_build_the_constructed_value(self, seed):
        fields = _seeded_fields(TraceValue, seed, 60)
        for (log, value), (out_log, out_value) in zip(fields, fields[1:] + fields[:1]):
            m = TraceValue(log, value)
            bound = effects._trace_bind(m, lambda _: TraceValue(out_log, out_value))
            mapped = effects._trace_map(m, lambda _: out_value)
            for got, built in (
                (bound, TraceValue(log + out_log, out_value)),
                (mapped, TraceValue(log, out_value)),
            ):
                assert type(got) is TraceValue
                assert got == built and got.value is out_value
                assert _outcome(hash, got) == _outcome(hash, built)
                assert repr(got) == repr(built)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    got.log = ()


class TestValueTypesBehaveLikePlainDataclasses:
    """``TraceValue`` and ``NondetValue`` store their fields through their
    slots; nothing else about them may differ from a plain frozen slots
    dataclass."""

    @pytest.mark.parametrize("cls", [TraceValue, NondetValue], ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_values_behave_like_the_plain_twin(self, cls, seed):
        _assert_behaves_like_a_plain_dataclass(cls, seed)

    @pytest.mark.parametrize("cls", [TraceValue, NondetValue], ids=lambda cls: cls.__name__)
    def test_signature_matches_the_plain_twin(self, cls):
        assert inspect.signature(cls) == inspect.signature(_PLAIN[cls])
        assert inspect.signature(cls.__init__) == inspect.signature(_PLAIN[cls].__init__)

    @pytest.mark.parametrize(
        "cls, broken",
        [
            (TraceValue, _stores_the_value_in_the_log_slot),
            (TraceValue, _skips_the_value),
            (NondetValue, _skips_the_alternatives),
        ],
        ids=["value-in-the-log-slot", "skips-the-value", "skips-the-alternatives"],
    )
    def test_a_broken_init_is_caught(self, cls, broken, monkeypatch):
        monkeypatch.setattr(cls, "__init__", broken)
        with pytest.raises(AssertionError):
            _assert_behaves_like_a_plain_dataclass(cls, seed=0)


# One value of each frozen slots dataclass that the classes above do not
# cover, built fresh for each test.
_RECORDS = {
    SelectionComputation: lambda: sel_unit(1),
    QuantifierComputation: lambda: quant_unit(1),
    EffectInstance: lambda: EffectInstance("Plain", lambda a: a, lambda m, f: f(m)),
    BooleanFormula: lambda: BooleanFormula(2, all),
    Stage: lambda: Stage(0, ("a", "b")),
    SequentialGameSpec: lambda: SequentialGameSpec(("P",), (Stage(0, ("a",)),), {("a",): (1,)}.__getitem__),
    SimultaneousGameSpec: lambda: SimultaneousGameSpec(("R", "C"), (("a",), ("b",)), max),
    LawReport: lambda: LawReport("law", 1, 0),
}


class TestRecordsAreFrozen:
    """Every frozen slots dataclass in ``selcc`` refuses to change."""

    def test_every_frozen_slots_dataclass_is_checked(self):
        found = set()
        for module_info in pkgutil.iter_modules(selcc.__path__):
            module = importlib.import_module(f"selcc.{module_info.name}")
            found.update(
                cls
                for cls in vars(module).values()
                if isinstance(cls, type)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
                and "__slots__" in vars(cls)
            )
        assert found == set(_RECORDS) | {TraceValue, NondetValue}

    @pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
    def test_no_attribute_can_be_set_or_deleted(self, cls):
        record = _RECORDS[cls]()
        names = [field.name for field in dataclasses.fields(record)]
        before = [getattr(record, name) for name in names]
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        # A name that is not a field meets the standard library's fault on
        # Python 3.10-3.13: the generated __setattr__ calls super() on the
        # class as it was before slots=True rebuilt it, and raises TypeError.
        with pytest.raises((TypeError, dataclasses.FrozenInstanceError)):
            record.other = None
        assert not hasattr(record, "other")
        assert all(getattr(record, name) is value for name, value in zip(names, before))

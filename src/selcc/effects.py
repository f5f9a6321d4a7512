"""Base effects that selection and quantifier computations run over.

An effect is a monad presented as a bundle of first-class functions: ``unit``
injects a plain value, ``bind`` sequences a computation into a dependent
continuation, and ``map`` applies a plain function to a computation's
value(s) in one step.  Three instances are provided:

* identity — no effect at all, ``Eff(A) = A``;
* trace — a write-only log of text lines carried alongside the value;
* nondet — a finite, ordered, duplicate-free sequence of alternatives.

Every instance satisfies the monad laws (see :mod:`selcc.laws` for the
machine-checked evidence), and each one's ``map`` is exactly its ``bind``
into its ``unit``:

* identity: ``map(m, g) = g(m)``;
* trace: ``map(m, g)`` keeps ``m``'s log and applies ``g`` to its value;
* nondet: ``map(m, g)`` applies ``g`` to every alternative and dedups.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")


@dataclass(frozen=True, slots=True)
class EffectInstance:
    """A monad as a value: a name, a unit, a bind, and a map.

    ``unit(a)`` wraps a plain value; ``bind(m, f)`` runs ``m`` and feeds its
    result(s) to ``f``; ``map(m, g)`` equals ``bind(m, lambda a:
    unit(g(a)))``.  An instance built from a name, a unit and a bind alone
    (or with ``map=None``) gets exactly that map; ``dataclasses.replace``
    copies the old map unless it is given ``map=None`` too.  ``map`` takes
    no part in ``==``: two instances
    with the same name, unit and bind are the same effect.  Instances are
    immutable bundles of pure functions and are safe to share between
    threads.

    ``bind`` and ``map`` are strict: they apply ``f`` (or ``g``) to every
    alternative of ``m`` before they return.  The scored runners of
    :func:`selcc.core.sel_sequence` read what their scoring continuation
    recorded as soon as ``bind`` returns, so an effect whose bind defers
    those calls breaks them.
    """

    name: str
    unit: Callable[[Any], Any]
    bind: Callable[[Any, Callable[[Any], Any]], Any]
    map: Callable[[Any, Callable[[Any], Any]], Any] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.map is None:
            bind, unit = self.bind, self.unit

            def derived_map(m: Any, g: Callable[[Any], Any]) -> Any:
                return bind(m, lambda a: unit(g(a)))

            object.__setattr__(self, "map", derived_map)


@dataclass(frozen=True, slots=True)
class TraceValue(Generic[A]):
    """A value together with the ordered log accumulated while computing it."""

    log: tuple[str, ...]
    value: A

    def __init__(self, log: tuple[str, ...], value: A) -> None:
        _set_log(self, log)
        _set_value(self, value)


@dataclass(frozen=True, slots=True)
class NondetValue(Generic[A]):
    """A finite set of alternatives with deterministic first-occurrence order.

    ``alternatives`` never contains duplicates (structural equality); dedup
    keeps the first occurrence, so iteration order is stable and comparisons
    against oracles are exact.  Dedup takes linear time when every
    alternative is hashable; unhashable alternatives work, but a bind that
    meets one scans its whole output as a list, in quadratic time.
    """

    alternatives: tuple[A, ...]

    def __init__(self, alternatives: tuple[A, ...]) -> None:
        _set_alternatives(self, alternatives)


# Every trace and nondet bind, map and unit builds one of these values, so
# each stores its fields straight through their slots, skipping the generated
# __init__'s ``object.__setattr__`` per field; the trace bind and map and the
# nondet unit, the most frequent, skip the call of ``__init__`` too.
# ``-> None`` is reset to the generated one's ``None`` (not the string) so the
# signatures stay the same.
_set_log, _set_value = TraceValue.log.__set__, TraceValue.value.__set__
_set_alternatives = NondetValue.alternatives.__set__
TraceValue.__init__.__annotations__["return"] = None
NondetValue.__init__.__annotations__["return"] = None


def _identity_bind(m: Any, f: Callable[[Any], Any]) -> Any:
    return f(m)


_IDENTITY = EffectInstance(
    name="Identity", unit=lambda a: a, bind=_identity_bind, map=_identity_bind
)


def identity_effect() -> EffectInstance:
    """The trivial effect: values are themselves, bind is application."""
    return _IDENTITY


def _trace_unit(a: Any) -> TraceValue[Any]:
    return TraceValue((), a)


def _trace_bind(m: TraceValue[Any], f: Callable[[Any], TraceValue[Any]]) -> TraceValue[Any]:
    out = f(m.value)
    value = object.__new__(TraceValue)
    _set_log(value, m.log + out.log)
    _set_value(value, out.value)
    return value


def _trace_map(m: TraceValue[Any], g: Callable[[Any], Any]) -> TraceValue[Any]:
    value = object.__new__(TraceValue)
    _set_log(value, m.log)
    _set_value(value, g(m.value))
    return value


_TRACE = EffectInstance(name="Trace", unit=_trace_unit, bind=_trace_bind, map=_trace_map)


def trace_effect() -> EffectInstance:
    """The writer-style effect: logs concatenate left-then-right."""
    return _TRACE


def tell(line: str) -> TraceValue[None]:
    """A trace computation that appends exactly one line and carries no value."""
    return TraceValue((line,), None)


def _dedup(items: Sequence[Any]) -> tuple[Any, ...]:
    """``items`` without repeats, each kept where it first occurs.

    Hashable alternatives go through a dict, in linear time.  If any
    alternative is unhashable, the whole input is scanned as a list instead,
    which is quadratic.  Both compare with ``==`` (after identity), so ``1``,
    ``True`` and ``1.0`` collapse to the first one seen either way.
    """
    try:
        return tuple(dict.fromkeys(items))
    except TypeError:
        pass
    seen: list[Any] = []
    for item in items:
        if item not in seen:
            seen.append(item)
    return tuple(seen)


def _nondet_unit(a: Any) -> NondetValue[Any]:
    value = object.__new__(NondetValue)
    _set_alternatives(value, (a,))
    return value


def _nondet_bind(m: NondetValue[Any], f: Callable[[Any], NondetValue[Any]]) -> NondetValue[Any]:
    collected: list[Any] = []
    for alt in m.alternatives:
        collected.extend(f(alt).alternatives)
    return NondetValue(_dedup(collected))


def _nondet_map(m: NondetValue[Any], g: Callable[[Any], Any]) -> NondetValue[Any]:
    return NondetValue(_dedup(list(map(g, m.alternatives))))


_NONDET = EffectInstance(name="Nondet", unit=_nondet_unit, bind=_nondet_bind, map=_nondet_map)


def nondet_effect() -> EffectInstance:
    """The finite-nondeterminism effect: map, flatten, then dedup in order.

    The dedup is linear in the flattened alternatives when all of them are
    hashable, and quadratic when any is not.
    """
    return _NONDET

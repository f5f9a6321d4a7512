"""Base effects that selection and quantifier computations run over.

An effect is a monad presented as a bundle of first-class functions: ``unit``
injects a plain value and ``bind`` sequences a computation into a dependent
continuation.  Three instances are provided:

* identity — no effect at all, ``Eff(A) = A``;
* trace — a write-only log of text lines carried alongside the value;
* nondet — a finite, ordered, duplicate-free sequence of alternatives.

Every instance satisfies the monad laws (see :mod:`selcc.laws` for the
machine-checked evidence).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")


@dataclass(frozen=True, slots=True)
class EffectInstance:
    """A monad as a value: a name, a unit, and a bind.

    ``unit(a)`` wraps a plain value; ``bind(m, f)`` runs ``m`` and feeds its
    result(s) to ``f``.  Instances are immutable bundles of pure functions and
    are safe to share between threads.
    """

    name: str
    unit: Callable[[Any], Any]
    bind: Callable[[Any, Callable[[Any], Any]], Any]


@dataclass(frozen=True, slots=True)
class TraceValue(Generic[A]):
    """A value together with the ordered log accumulated while computing it."""

    log: tuple[str, ...]
    value: A


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


def _identity_bind(m: Any, f: Callable[[Any], Any]) -> Any:
    return f(m)


_IDENTITY = EffectInstance(name="Identity", unit=lambda a: a, bind=_identity_bind)


def identity_effect() -> EffectInstance:
    """The trivial effect: values are themselves, bind is application."""
    return _IDENTITY


def _trace_unit(a: Any) -> TraceValue[Any]:
    return TraceValue((), a)


def _trace_bind(m: TraceValue[Any], f: Callable[[Any], TraceValue[Any]]) -> TraceValue[Any]:
    out = f(m.value)
    return TraceValue(m.log + out.log, out.value)


_TRACE = EffectInstance(name="Trace", unit=_trace_unit, bind=_trace_bind)


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
    return NondetValue((a,))


def _nondet_bind(m: NondetValue[Any], f: Callable[[Any], NondetValue[Any]]) -> NondetValue[Any]:
    collected: list[Any] = []
    for alt in m.alternatives:
        collected.extend(f(alt).alternatives)
    return NondetValue(_dedup(collected))


_NONDET = EffectInstance(name="Nondet", unit=_nondet_unit, bind=_nondet_bind)


def nondet_effect() -> EffectInstance:
    """The finite-nondeterminism effect: map, flatten, then dedup in order.

    The dedup is linear in the flattened alternatives when all of them are
    hashable, and quadratic when any is not.
    """
    return _NONDET

"""Counting and span recording around selcc's public boundaries.

:class:`Counter` (untraced) and :class:`Recorder` (traced) share three hooks:

* ``user(fn)`` wraps a user-supplied continuation (formula, payoff, k);
* ``span(name)`` brackets one call into a public function;
* ``effect(lib, eff)`` returns the effect to run a selection over.

:class:`Counter` only counts user-continuation calls, which the end-to-end
``user_evals`` metric needs.  :class:`Recorder` keeps spans in memory and
derives self times: a frame's self time is its duration minus the durations
of the frames opened inside it.  Continuation calls, effect binds and chooser
runs are too many to record one by one, so each is aggregated into the
innermost open span as a count and a total self time.  It adds a fourth hook,
``selection(lib, comp)``, which rebuilds a selection over the recorded effect
with a counting chooser.  Every wrapper is built from public constructors
only (``BooleanFormula``, ``SequentialGameSpec``, ``SelectionComputation``,
``EffectInstance``).

Traced and untraced runs take the same path through the library except in
three places, each named in :mod:`workloads`: sat's ``demo-sat`` items call
``sat_callcc`` directly when traced, nondet's games rebuild their product
from recorded players when traced, and laws calls the nine suite functions
instead of ``selcc laws`` when traced.
"""
from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterator

class Counter:
    """Untraced hooks: counts user-continuation calls and nothing else."""

    traced = False

    def __init__(self) -> None:
        self.calls = 0

    def user(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*args: Any) -> Any:
            self.calls += 1
            return fn(*args)

        return counted

    def span(self, name: str, item: int | None = None) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def effect(self, lib: Any, eff: Any) -> Any:
        return eff


class Recorder(Counter):
    """Traced hooks: spans with name, start, end, parent and item id."""

    traced = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[dict[str, Any]] = []
        self._frames: list[list[float]] = []  # [start, time in child frames]
        self._open: list[dict[str, Any]] = []  # open spans, innermost last
        self._effects: dict[str, Any] = {}

    def _enter(self) -> None:
        self._frames.append([time.perf_counter(), 0.0])

    def _leave(self) -> tuple[float, float, float]:
        """Close the innermost frame; return (start, duration, self time)."""
        start, child = self._frames.pop()
        duration = time.perf_counter() - start
        if self._frames:
            self._frames[-1][1] += duration
        return start, duration, duration - child

    def _aggregate(self, kind: str, self_time: float, **counts: int) -> None:
        agg = self._open[-1]["agg"].setdefault(kind, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += self_time
        for key, value in counts.items():
            agg[key] = agg.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str, item: int | None = None) -> Iterator[dict[str, Any]]:
        parent = self._open[-1] if self._open else None
        record: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "item": item if item is not None else (parent["item"] if parent else None),
            "agg": {},
        }
        self.spans.append(record)
        self._open.append(record)
        self._enter()
        try:
            yield record
        finally:
            start, duration, self_time = self._leave()
            self._open.pop()
            record.update(start=start, end=start + duration, self_s=self_time)

    def _frame(self, kind: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(*args: Any) -> Any:
            self._enter()
            try:
                return fn(*args)
            finally:
                self._aggregate(kind, self._leave()[2])

        return wrapped

    def user(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        return self._frame("user", super().user(fn))

    def effect(self, lib: Any, eff: Any) -> Any:
        """The same effect, with a bind that records calls, self time and the
        number of alternatives before and after dedup (nondet only)."""
        if eff.name in self._effects:
            return self._effects[eff.name]
        base_bind = eff.bind
        nondet = eff.name == "Nondet"

        def bind(m: Any, f: Callable[[Any], Any]) -> Any:
            alts_in = 0
            timed_f = self._frame("bind_f", f)

            def counting_f(x: Any) -> Any:
                nonlocal alts_in
                out = timed_f(x)
                if nondet:
                    alts_in += len(out.alternatives)
                return out

            self._enter()
            try:
                out = base_bind(m, counting_f)
            finally:
                self_time = self._leave()[2]
            alts_out = len(out.alternatives) if nondet else 0
            self._aggregate("bind", self_time, alts_in=alts_in, alts_out=alts_out)
            return out

        self._effects[eff.name] = lib.EffectInstance(eff.name, eff.unit, bind)
        return self._effects[eff.name]

    def selection(self, lib: Any, comp: Any) -> Any:
        """The same selection over the recorded effect, counting chooser runs."""
        return lib.SelectionComputation(self._frame("chooser", comp.chooser), self.effect(lib, comp.effect))

    def total(self, name: str, field: str = "duration") -> float:
        """Sum over spans called ``name`` of their duration or self time."""
        key = "self_s" if field == "self" else None
        return sum(s[key] if key else s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def agg(self, kind: str, field: str, names: tuple[str, ...] | None = None) -> float:
        """Sum an aggregated field over spans (optionally only those named)."""
        return sum(
            s["agg"][kind].get(field, 0)
            for s in self.spans
            if kind in s["agg"] and (names is None or s["name"] in names)
        )

"""Machine-speed calibration for a shared host whose speed drifts.

On a machine shared with other tenants the same Python code can run 30%
faster or slower from one ten-second stretch to the next, which would swamp
any change worth measuring.  So while the benchmark measures, a fixed
pure-Python kernel runs on an interval timer, and every measured interval,
less the kernel's own time inside it, is scaled by ``REF_KERNEL_S`` over the
mean kernel time around it.  Reported times therefore read as seconds on a
machine where the kernel takes exactly ``REF_KERNEL_S``; raw wall-clock
figures are printed alongside.  The kernel does the kind of work selcc does
(a product search through closures, a dedup by list scan) in code of its
own, so a change to the library never moves the yardstick.

One long dedup, as in nondet's big bind, is a list scan that runs in C, and
the host's drift moves it by other amounts than interpreted closures.  So
each tick also runs :func:`scan_kernel`, and an interval can be scaled by
either yardstick: ``"search"`` (the default) or ``"scan"``.

Set-up (importing selcc, parsing specs) is work of another shape, compiling
and allocating, and the host's drift moves it by other amounts than the
search kernel.  So each set-up repetition is timed between two runs of a
second, set-up-shaped kernel (:func:`setup_kernel`) and scaled by
``REF_SETUP_KERNEL_S`` over their mean (:func:`paired`).
"""
from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from typing import Any, Callable

INTERVAL_S = 0.1  # timer period: about 3% of the run goes to the kernels
WINDOW_S = 0.5  # kernel samples this close to an interval calibrate it
REF_KERNEL_S = 0.0015
KERNEL_VARIABLES = 7
KERNEL_SCAN = 250
REF_SCAN_KERNEL_S = 0.001
SCAN_KERNEL_LENGTH = 320
REF_SETUP_KERNEL_S = 0.005
SETUP_KERNEL_COMPILES = 2

SETUP_KERNEL_SOURCE = """
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Move:
    player: int
    label: str = ""
    options: tuple = ()

    def score(self, k):
        return k(self.player) + len(self.label)


@dataclass
class Stage:
    moves: list = field(default_factory=list)
    name: str = "stage"


def walk(depth, label, *skip, **extra):
    out = []
    for i in range(depth):
        if i % 3 == 0 and label:
            out.append((i, label))
        elif i in skip:
            out.extend(extra.get(str(i), ()))
    return out
"""
SETUP_KERNEL_DOC = json.dumps({f"m{i},m{j}": [i - j, j - i] for i in range(20) for j in range(20)})


def kernel() -> int:
    """Fixed work shaped like selcc's: a product of boolean probes searched
    in continuation-passing style (closures, tuples, dict counts), then a
    first-occurrence dedup by list scan."""

    def unit(x: object):
        return lambda k: x

    def bind(eps, f):
        def chooser(k):
            x = eps(lambda x: k(f(x)(k)))
            return f(x)(k)

        return chooser

    def probe(k):
        return k(True)

    counts: dict[tuple[bool, ...], int] = {}

    def predicate(bits: tuple[bool, ...]) -> bool:
        counts[bits[:3]] = counts.get(bits[:3], 0) + 1
        return bits[0] and not bits[1] and sum(bits) == 3

    product = unit(())
    for _ in range(KERNEL_VARIABLES):
        product = (lambda rest: bind(probe, lambda x: bind(rest, lambda xs: unit((x,) + xs))))(product)
    seen: list[int] = []
    for i in range(KERNEL_SCAN):
        value = (i * 7919) % 1009
        if value not in seen:
            seen.append(value)
    return len(product(predicate)) + len(seen) + len(counts)


def scan_kernel() -> int:
    """Fixed work shaped like a large nondet dedup: first-occurrence dedup
    of distinct integers by list scan, so every lookup scans the whole list."""
    seen: list[int] = []
    for i in range(SCAN_KERNEL_LENGTH):
        value = (i * 7919) % 100003
        if value not in seen:
            seen.append(value)
    return len(seen)


YARDSTICKS = {"search": (kernel, REF_KERNEL_S), "scan": (scan_kernel, REF_SCAN_KERNEL_S)}


def setup_kernel() -> int:
    """Fixed work shaped like selcc's set-up: compile and run module source
    that defines dataclasses, parse a JSON payoff document into a table keyed
    by move tuples, and run the search :func:`kernel` once."""
    for _ in range(SETUP_KERNEL_COMPILES):
        code = compile(SETUP_KERNEL_SOURCE, "<setup-kernel>", "exec", dont_inherit=True)
        exec(code, {"__name__": "setup_kernel"})
    doc = json.loads(SETUP_KERNEL_DOC)
    table = {tuple(key.split(",")): tuple(value) for key, value in doc.items()}
    return len(table) + kernel()


def paired(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``fn`` between two timed :func:`setup_kernel` runs; its result,
    its seconds scaled to the set-up reference speed, and its raw seconds."""
    k0 = time.perf_counter()
    setup_kernel()
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    setup_kernel()
    k1 = time.perf_counter()
    kernel_s = ((start - k0) + (k1 - end)) / 2
    return result, (end - start) * REF_SETUP_KERNEL_S / kernel_s, end - start


class Speedometer:
    """Samples every yardstick's kernel every ``INTERVAL_S`` on SIGALRM while
    entered."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []  # all kernels of a tick together
        self.samples: dict[str, list[float]] = {name: [] for name in YARDSTICKS}
        self._previous: Any = None

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _tick(self, *_: object) -> None:
        start = lap = time.perf_counter()
        for name, (run_kernel, _) in YARDSTICKS.items():
            run_kernel()
            now = time.perf_counter()
            self.samples[name].append(now - lap)
            lap = now
        self.starts.append(start)
        self.durations.append(lap - start)

    def scaled(self, start: float, end: float, yardstick: str = "search") -> float:
        """``end - start`` without the kernel runs inside it, at the reference
        speed of ``yardstick``; a long interval is scaled piece by piece."""
        pieces = max(1, round((end - start) / WINDOW_S))
        step = (end - start) / pieces
        return sum(self._scaled_piece(start + i * step, start + (i + 1) * step, yardstick)
                   for i in range(pieces))

    def _scaled_piece(self, start: float, end: float, yardstick: str) -> float:
        first_inside = bisect.bisect_left(self.starts, start)
        past_inside = bisect.bisect_left(self.starts, end)
        own = sum(self.durations[first_inside:past_inside])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        reference = YARDSTICKS[yardstick][1]
        return (end - start - own) * reference / midmean(self.samples[yardstick][lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per raw second over ``[start, end]``."""
        raw = end - start
        return self.scaled(start, end) / raw if raw > 0 else 1.0


def midmean(values: list[float]) -> float:
    """Mean of the middle half: tracks the average slowdown over a window, as
    the measured interval feels it, without the odd preempted sample."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])

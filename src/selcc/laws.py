"""Machine-checked evidence for the algebraic laws of the library.

Every suite here returns :class:`LawReport` values (a name plus case/failure
counts) so the same drivers back both the test suite and the ``laws`` CLI
subcommand.  Two kinds of sweep are used:

* exhaustive sweeps over the identity effect, where computations over finite
  carriers are enumerated as lookup tables — every chooser, every Kleisli
  map, every continuation within the stated carrier bounds;
* seeded randomized sweeps over the trace and nondeterminism effects, whose
  value spaces (logs, alternative sets) are unbounded.

Performance note: over the identity effect a computation on finite carriers
is pure, so its table of results over every continuation fixes it.  The
exhaustive monad-law sweeps (:func:`_exhaustive_reports`, one driver for both
monads) run each *distinct* composed computation through the real bind once,
on every continuation, and intern its table.  Every case a direct sweep would
visit (each computation, Kleisli map and continuation) is still counted, and
checked as a comparison of two table entries.  The selection and quantifier
sweeps cover 4.2 and 4.4 million cases with about 86 and 95 thousand runs of
composed computations.  The base-effect laws (:func:`_effect_laws`, one driver
for the identity, trace and nondet effects) do the same one level down: each
distinct ``bind`` runs once, its result is interned by value, and each
associativity case compares two ids.  The trace effect's 447,600 cases take
about 0.2 s instead of 2.1 s for a direct sweep (2-core Linux x86-64, Python
3.11).
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .core import (
    QuantifierComputation,
    SelectionComputation,
    quant_bind,
    quant_unit,
    run_quantifier,
    run_selection,
    sel_bind,
    sel_unit,
    to_quantifier,
)
from .effects import (
    EffectInstance,
    NondetValue,
    TraceValue,
    identity_effect,
    nondet_effect,
    trace_effect,
)
from .games import (
    SequentialGameSpec,
    SimultaneousGameSpec,
    Stage,
    backward_induction,
    backward_induction_oracle,
    fix_selection,
    nash_oracle,
    nondet_argmax_selection,
    punk_selection,
    sum_selections,
)
from .search import BooleanFormula, bool_probe, sat_oracle, sat_product

_IDENTITY = identity_effect()
_TRACE = trace_effect()
_NONDET = nondet_effect()

_EXHAUSTIVE_SIZES = (1, 2)


@dataclass(frozen=True, slots=True)
class LawReport:
    """Outcome of one law sweep: how many cases ran and how many failed."""

    name: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------------------
# Exhaustive enumeration over the identity effect.
#
# Carriers are range(n).  A selection over X with results in range(r) is a
# table indexed by the continuation's value vector; a quantifier likewise maps
# the vector to a result.  Continuations are tables too, exposed as C-level
# __getitem__ callables to keep the multi-million-case sweeps affordable.
# ---------------------------------------------------------------------------


def _table_fn(table: tuple[int, ...], n: int, r: int) -> Callable[[Callable[[int], int]], int]:
    if n == 1:
        def fn(k: Callable[[int], int]) -> int:
            return table[k(0)]
    elif n == 2:
        def fn(k: Callable[[int], int]) -> int:
            return table[k(0) * r + k(1)]
    else:
        points = tuple(range(n))

        def fn(k: Callable[[int], int]) -> int:
            index = 0
            for p in points:
                index = index * r + k(p)
            return table[index]

    return fn


def _table_selections(n: int, r: int) -> list[SelectionComputation]:
    return [
        SelectionComputation(_table_fn(table, n, r), _IDENTITY)
        for table in itertools.product(range(n), repeat=r**n)
    ]


def _table_quantifiers(n: int, r: int) -> list[QuantifierComputation]:
    return [
        QuantifierComputation(_table_fn(table, n, r), _IDENTITY)
        for table in itertools.product(range(r), repeat=r**n)
    ]


def _continuations(n: int, r: int) -> list[Callable[[int], int]]:
    return [table.__getitem__ for table in itertools.product(range(r), repeat=n)]


class _Tabulation:
    """Computations over carrier ``range(n)`` with results in ``range(r)``,
    interned by their table of results over every continuation.

    Over the identity effect a computation is pure, so its table fixes it:
    two computations with one table behave alike wherever they are used.
    The first ``base`` entries are the enumerated computations; binds may add
    more (a broken bind need not stay within them).
    """

    def __init__(
        self, run: Callable[[Any, Callable[[int], int]], Any], comps: list[Any], n: int, r: int
    ):
        self.run = run
        self.conts = _continuations(n, r)
        self.comps: list[Any] = []
        self.tables: list[tuple[Any, ...]] = []
        self.ids: dict[tuple[Any, ...], int] = {}
        for comp in comps:
            self.intern(comp)
        self.base = len(self.comps)

    def intern(self, comp: Any) -> int:
        """Run ``comp`` on every continuation; the id of its table."""
        run = self.run
        table = tuple([run(comp, k) for k in self.conts])
        found = self.ids.get(table)
        if found is None:
            found = self.ids[table] = len(self.comps)
            self.comps.append(comp)
            self.tables.append(table)
        return found

    def kleisli(self, ids: Sequence[int]) -> Callable[[int], Any]:
        """The map ``x -> comps[ids[x]]``."""
        return tuple(self.comps[i] for i in ids).__getitem__

    def compare(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> tuple[int, int]:
        """Cases and failures of ``lhs[i] == rhs[i]`` on every continuation.

        Ids are equal exactly when tables are, so only unequal pairs need
        their entries counted one by one.
        """
        failures = 0
        if lhs != rhs:
            tables = self.tables
            for a, b in zip(lhs, rhs):
                if a != b:
                    failures += sum(map(operator.ne, tables[a], tables[b]))
        return len(lhs) * len(self.conts), failures


def _exhaustive_reports(
    monad: str,
    unit: Callable[[int], Any],
    bind: Callable[[Any, Callable[[int], Any]], Any],
    run: Callable[[Any, Callable[[int], int]], Any],
    tables: Callable[[int, int], list[Any]],
) -> list[LawReport]:
    """The three monad laws over every carrier size up to 2.

    ``tables(n, r)`` enumerates every computation over ``range(n)`` with
    results in ``range(r)``.  A case is one (unit or computation, Kleisli
    maps, continuation) tuple, as in a direct sweep, but each distinct
    composed computation runs through the real ``bind`` only once, on every
    continuation, and each case compares two entries of the interned tables.
    """
    tabulations: dict[tuple[int, int], _Tabulation] = {}

    def tab(n: int, r: int) -> _Tabulation:
        if (n, r) not in tabulations:
            tabulations[n, r] = _Tabulation(run, tables(n, r), n, r)
        return tabulations[n, r]

    def left_unit(nx: int, ny: int, nr: int) -> tuple[int, int]:
        ty = tab(ny, nr)
        cases = failures = 0
        for f_ids in itertools.product(range(ty.base), repeat=nx):
            f = ty.kleisli(f_ids)
            lhs = tuple(ty.intern(bind(unit(x), f)) for x in range(nx))
            c, fl = ty.compare(lhs, f_ids)
            cases += c
            failures += fl
        return cases, failures

    def right_unit(nx: int, nr: int) -> tuple[int, int]:
        tx = tab(nx, nr)
        ids = tuple(range(tx.base))
        lhs = tuple(tx.intern(bind(tx.comps[i], unit)) for i in ids)
        return tx.compare(lhs, ids)

    def assoc(nx: int, ny: int, nz: int, nr: int) -> tuple[int, int]:
        tx, ty, tz = tab(nx, nr), tab(ny, nr), tab(nz, nr)
        xs = tx.comps[: tx.base]
        f_maps = list(itertools.product(range(ty.base), repeat=nx))
        # bind(eps, f) for every f and eps: the left side's inner bind.
        inner = [tuple(ty.intern(bind(eps, ty.kleisli(f))) for eps in xs) for f in f_maps]
        ys = ty.comps[:]
        # bind(eps, x -> bind(f(x), g)) depends on g and f only through
        # the ids of the bind(f(x), g), so it is shared across them.
        outer: dict[tuple[int, ...], tuple[int, ...]] = {}
        cases = failures = 0
        for g_ids in itertools.product(range(tz.base), repeat=ny):
            g = tz.kleisli(g_ids)
            then_g = [tz.intern(bind(y, g)) for y in ys]
            for f, inner_row in zip(f_maps, inner):
                lhs = tuple(then_g[i] for i in inner_row)
                fg = tuple(then_g[i] for i in f)
                rhs = outer.get(fg)
                if rhs is None:
                    fg_map = tz.kleisli(fg)
                    rhs = outer[fg] = tuple(tz.intern(bind(eps, fg_map)) for eps in xs)
                c, fl = tz.compare(lhs, rhs)
                cases += c
                failures += fl
        return cases, failures

    def over_sizes(law: Callable[..., tuple[int, int]], arity: int) -> tuple[int, int]:
        cases = failures = 0
        for sizes in itertools.product(_EXHAUSTIVE_SIZES, repeat=arity):
            c, fl = law(*sizes)
            cases += c
            failures += fl
        return cases, failures

    return [
        LawReport(f"{monad} left unit (exhaustive, identity)", *over_sizes(left_unit, 3)),
        LawReport(f"{monad} right unit (exhaustive, identity)", *over_sizes(right_unit, 2)),
        LawReport(f"{monad} associativity (exhaustive, identity)", *over_sizes(assoc, 4)),
    ]


def selection_monad_reports() -> list[LawReport]:
    """Exhaustive identity-effect law sweeps for the selection monad.

    All carrier sizes up to 2 (values, both intermediate stages, and results),
    all choosers, Kleisli maps, and continuations as finite tables.
    """
    return _exhaustive_reports("selection", sel_unit, sel_bind, run_selection, _table_selections)


def quantifier_monad_reports() -> list[LawReport]:
    """Exhaustive identity-effect law sweeps for the quantifier monad."""
    return _exhaustive_reports(
        "quantifier", quant_unit, quant_bind, run_quantifier, _table_quantifiers
    )


# ---------------------------------------------------------------------------
# Randomized sweeps over the trace and nondeterminism effects.
#
# Choosers must be pure functions of their continuation; random ones are
# built by evaluating the continuation across the whole carrier, reducing the
# results to an integer digest with per-chooser random coefficients, and
# selecting deterministically from that digest.  Seeded random.Random only —
# results are reproducible for a fixed seed.
# ---------------------------------------------------------------------------


def _digest(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value % 9973
    if isinstance(value, str):
        return sum(ord(c) for c in value) % 9973
    if isinstance(value, tuple):
        total = 0
        for i, item in enumerate(value):
            total = (total * 31 + (i + 1) * _digest(item)) % 9973
        return total
    if isinstance(value, TraceValue):
        return (_digest(value.log) * 5 + _digest(value.value) + len(value.log)) % 9973
    if isinstance(value, NondetValue):
        return (_digest(value.alternatives) * 7 + len(value.alternatives)) % 9973
    raise TypeError(f"no digest for {type(value).__name__}")


def _random_trace_eff_value(rng: random.Random, r_values: Sequence[int]) -> TraceValue:
    log = tuple(f"t{rng.randrange(4)}" for _ in range(rng.randrange(3)))
    return TraceValue(log, rng.choice(list(r_values)))


def _random_nondet_eff_value(rng: random.Random, r_values: Sequence[int]) -> NondetValue:
    picks = [v for v in r_values if rng.random() < 0.6]
    rng.shuffle(picks)
    return NondetValue(tuple(picks))


def _random_trace_selection(
    rng: random.Random, domain: Sequence[int], r_values: Sequence[int]
) -> SelectionComputation:
    coefficients = [rng.randrange(1, 9973) for _ in domain]
    offset = rng.randrange(9973)
    own_log = tuple(f"s{rng.randrange(4)}" for _ in range(rng.randrange(2)))
    include_probe = rng.randrange(len(domain) + 1)  # len(domain) means "none"
    points = tuple(domain)

    def chooser(k: Callable[[int], TraceValue]) -> TraceValue:
        results = [k(x) for x in points]
        acc = offset
        for c, res in zip(coefficients, results):
            acc = (acc + c * _digest(res)) % 9973
        log = own_log
        if include_probe < len(points):
            log = results[include_probe].log + log
        return TraceValue(log, points[acc % len(points)])

    return SelectionComputation(chooser, _TRACE)


def _random_trace_quantifier(
    rng: random.Random, domain: Sequence[int], r_values: Sequence[int]
) -> QuantifierComputation:
    coefficients = [rng.randrange(1, 9973) for _ in domain]
    offset = rng.randrange(9973)
    own_log = tuple(f"q{rng.randrange(4)}" for _ in range(rng.randrange(2)))
    include_probe = rng.randrange(len(domain) + 1)
    values = tuple(r_values)
    points = tuple(domain)

    def runner(k: Callable[[int], TraceValue]) -> TraceValue:
        results = [k(x) for x in points]
        acc = offset
        for c, res in zip(coefficients, results):
            acc = (acc + c * _digest(res)) % 9973
        log = own_log
        if include_probe < len(points):
            log = results[include_probe].log + log
        return TraceValue(log, values[acc % len(values)])

    return QuantifierComputation(runner, _TRACE)


def _random_nondet_selection(
    rng: random.Random, domain: Sequence[int], r_values: Sequence[int]
) -> SelectionComputation:
    coefficients = [rng.randrange(1, 9973) for _ in domain]
    offset = rng.randrange(9973)
    keep_mod = rng.randrange(2, 4)
    points = tuple(domain)

    def chooser(k: Callable[[int], NondetValue]) -> NondetValue:
        digests = [_digest(k(x)) for x in points]
        total = (offset + sum(c * d for c, d in zip(coefficients, digests))) % 9973
        alternatives = tuple(
            x
            for x, c, d in zip(points, coefficients, digests)
            if (total + c + d) % keep_mod != 0
        )
        return NondetValue(alternatives)

    return SelectionComputation(chooser, _NONDET)


def _random_nondet_quantifier(
    rng: random.Random, domain: Sequence[int], r_values: Sequence[int]
) -> QuantifierComputation:
    coefficients = [rng.randrange(1, 9973) for _ in domain]
    offset = rng.randrange(9973)
    keep_mod = rng.randrange(2, 4)
    merge_probe = rng.randrange(len(domain) + 1)
    values = tuple(r_values)
    points = tuple(domain)

    def runner(k: Callable[[int], NondetValue]) -> NondetValue:
        results = [k(x) for x in points]
        total = (offset + sum(c * _digest(res) for c, res in zip(coefficients, results))) % 9973
        own = [v for i, v in enumerate(values) if (total + i) % keep_mod != 0]
        merged: list[int] = []
        if merge_probe < len(points):
            merged.extend(results[merge_probe].alternatives)
        for v in own:
            if v not in merged:
                merged.append(v)
        return NondetValue(tuple(merged))

    return QuantifierComputation(runner, _NONDET)


def _randomized_monad_failures(
    monad: str, effect_name: str, law: str, rng: random.Random, samples: int
) -> tuple[int, int]:
    trace = effect_name == "Trace"
    eff = _TRACE if trace else _NONDET
    rand_sel = _random_trace_selection if trace else _random_nondet_selection
    rand_quant = _random_trace_quantifier if trace else _random_nondet_quantifier
    rand_eff_value = _random_trace_eff_value if trace else _random_nondet_eff_value
    failures = 0
    for _ in range(samples):
        nx = rng.randrange(1, 4)
        ny = rng.randrange(1, 4)
        nz = rng.randrange(1, 4)
        xs = tuple(range(nx))
        ys = tuple(range(ny))
        zs = tuple(range(nz))
        r_values = tuple(range(rng.randrange(1, 4)))
        if monad == "selection":
            rand_comp: Callable[..., Any] = rand_sel
            unit: Callable[..., Any] = sel_unit
            bind: Callable[..., Any] = sel_bind
            run: Callable[..., Any] = run_selection
        else:
            rand_comp = rand_quant
            unit = quant_unit
            bind = quant_bind
            run = run_quantifier
        if law == "left unit":
            target = [rand_comp(rng, ys, r_values) for _ in xs]
            f = target.__getitem__
            x = rng.randrange(nx)
            k_table = [rand_eff_value(rng, r_values) for _ in ys]
            k = k_table.__getitem__
            if run(bind(unit(x, eff), f), k) != run(f(x), k):
                failures += 1
        elif law == "right unit":
            eps = rand_comp(rng, xs, r_values)
            k_table = [rand_eff_value(rng, r_values) for _ in xs]
            k = k_table.__getitem__
            if run(bind(eps, lambda x: unit(x, eff)), k) != run(eps, k):
                failures += 1
        else:  # associativity
            eps = rand_comp(rng, xs, r_values)
            f_list = [rand_comp(rng, ys, r_values) for _ in xs]
            g_list = [rand_comp(rng, zs, r_values) for _ in ys]
            f = f_list.__getitem__
            g = g_list.__getitem__
            k_table = [rand_eff_value(rng, r_values) for _ in zs]
            k = k_table.__getitem__
            lhs = bind(bind(eps, f), g)
            rhs = bind(eps, lambda x: bind(f(x), g))
            if run(lhs, k) != run(rhs, k):
                failures += 1
    return samples, failures


def randomized_monad_reports(seed: int = 0, samples: int = 1000) -> list[LawReport]:
    """Randomized law sweeps over the trace and nondeterminism effects.

    ``samples`` cases per (monad, effect, law) — 12 sweeps in total —
    deterministic for a fixed seed.
    """
    reports = []
    for monad in ("selection", "quantifier"):
        for effect_name in ("Trace", "Nondet"):
            for law in ("left unit", "right unit", "associativity"):
                rng = random.Random(repr((seed, monad, effect_name, law)))
                cases, failures = _randomized_monad_failures(
                    monad, effect_name, law, rng, samples
                )
                reports.append(
                    LawReport(
                        f"{monad} {law} (randomized, {effect_name.lower()})",
                        cases,
                        failures,
                    )
                )
    return reports


# ---------------------------------------------------------------------------
# Base-effect monad laws.
# ---------------------------------------------------------------------------


def _trace_values(n: int) -> list[TraceValue]:
    # Logs are unbounded, so exhaustiveness is over this documented finite
    # universe: an empty or one-line log crossed with every carrier value.
    return [TraceValue(log, v) for log in ((), ("line",)) for v in range(n)]


def _nondet_sequences(values: Sequence[int]) -> list[NondetValue]:
    seqs: list[NondetValue] = []
    for size in range(len(values) + 1):
        for combo in itertools.permutations(values, size):
            seqs.append(NondetValue(combo))
    return seqs


def _effect_laws(
    eff: EffectInstance, values: Callable[[int], Sequence[Any]], sizes: Sequence[int]
) -> tuple[int, int]:
    """Cases and failures of the three monad laws of ``eff``.

    ``values(n)`` lists the effect values over ``range(n)``.  For every
    carrier triple in ``sizes`` the sweep takes every ``m`` in ``values(n_a)``
    and every Kleisli map ``f``, ``g`` tabulated into ``values(n_b)`` and
    ``values(n_c)``.  A case is one ``(a, f)``, one ``m`` or one ``(m, f, g)``,
    as in a direct sweep.  Left and right unit run directly.  For
    associativity each distinct bind runs once: ``bind(m, f)`` for every ``m``
    and ``f``, ``bind(y, g)`` for every distinct ``y`` and ``g``, and
    ``bind(m, h)`` for every distinct table ``h`` of ``bind(f(a), g)``.  Each
    ``(f, g)`` then compares two lists of result ids over every ``m``, whose
    entries are counted one by one only on a mismatch.
    """
    bind, unit = eff.bind, eff.unit
    cases = failures = 0
    for n_a, n_b, n_c in itertools.product(sizes, repeat=3):
        ms = values(n_a)
        fs = list(itertools.product(values(n_b), repeat=n_a))
        gs = list(itertools.product(values(n_c), repeat=n_b))
        for a in range(n_a):
            for f in fs:
                cases += 1
                if bind(unit(a), f.__getitem__) != f[a]:
                    failures += 1
        for m in ms:
            cases += 1
            if bind(m, unit) != m:
                failures += 1

        # Results are interned by value: equal ids mean equal values.
        y_ids: dict[Any, int] = {}
        z_ids: dict[Any, int] = {}
        f_rows = [[y_ids.setdefault(y, len(y_ids)) for y in f] for f in fs]
        inner_rows = [
            [y_ids.setdefault(bind(m, f.__getitem__), len(y_ids)) for m in ms] for f in fs
        ]
        # bind(m, a -> bind(f(a), g)) depends on f and g only through the
        # ids of the bind(f(a), g), so it is shared across them.
        outer: dict[tuple[int, ...], list[int]] = {}
        for g in gs:
            zs = [bind(y, g.__getitem__) for y in y_ids]
            then_g = [z_ids.setdefault(z, len(z_ids)) for z in zs]
            for f_row, inner_row in zip(f_rows, inner_rows):
                lhs = [then_g[i] for i in inner_row]
                fg = tuple([then_g[i] for i in f_row])
                rhs = outer.get(fg)
                if rhs is None:
                    h = tuple([zs[i] for i in f_row]).__getitem__
                    rhs = outer[fg] = [z_ids.setdefault(bind(m, h), len(z_ids)) for m in ms]
                if lhs != rhs:
                    failures += sum(map(operator.ne, lhs, rhs))
        cases += len(ms) * len(fs) * len(gs)
    return cases, failures


def _nondet_effect_laws(
    seed: int = 0, samples: int = 2000, eff: EffectInstance = _NONDET
) -> tuple[int, int]:
    # Exhaustive at carriers <= 2 (all duplicate-free ordered sequences, all
    # function tables); randomized at carrier 3 where the table space blows up.
    cases, failures = _effect_laws(eff, lambda n: _nondet_sequences(range(n)), (1, 2))
    bind = eff.bind
    unit = eff.unit
    rng = random.Random(f"nondet-laws-{seed}")
    seqs3 = _nondet_sequences(range(3))
    for _ in range(samples):
        m = rng.choice(seqs3)
        f_table = [rng.choice(seqs3) for _ in range(3)]
        g_table = [rng.choice(seqs3) for _ in range(3)]
        f = f_table.__getitem__
        g = g_table.__getitem__
        a = rng.randrange(3)
        cases += 3
        if bind(unit(a), f) != f(a):
            failures += 1
        if bind(m, unit) != m:
            failures += 1
        if bind(bind(m, f), g) != bind(m, lambda v: bind(f(v), g)):
            failures += 1
    return cases, failures


def effect_law_reports(seed: int = 0) -> list[LawReport]:
    """Monad laws for the three base effects themselves."""
    return [
        LawReport(
            "identity effect monad laws (exhaustive)",
            *_effect_laws(_IDENTITY, range, (1, 2, 3)),
        ),
        LawReport(
            "trace effect monad laws (exhaustive, bounded logs)",
            *_effect_laws(_TRACE, _trace_values, (1, 2, 3)),
        ),
        LawReport(
            "nondet effect monad laws (exhaustive <=2 + randomized)",
            *_nondet_effect_laws(seed),
        ),
    ]


# ---------------------------------------------------------------------------
# The morphism from selections to quantifiers.
# ---------------------------------------------------------------------------


def _morphism_unit() -> tuple[int, int]:
    cases = failures = 0
    for nx, nr in itertools.product(_EXHAUSTIVE_SIZES, repeat=2):
        conts = _continuations(nx, nr)
        for x in range(nx):
            lhs = to_quantifier(sel_unit(x)).runner
            rhs = quant_unit(x).runner
            for k in conts:
                cases += 1
                if lhs(k) != rhs(k):
                    failures += 1
    return cases, failures


def _morphism_bind() -> tuple[int, int]:
    cases = failures = 0
    for nx, ny, nr in itertools.product(_EXHAUSTIVE_SIZES, repeat=3):
        xs = _table_selections(nx, nr)
        ys = _table_selections(ny, nr)
        conts = _continuations(ny, nr)
        for combo in itertools.product(ys, repeat=nx):
            f = combo.__getitem__
            mapped = tuple(to_quantifier(c) for c in combo).__getitem__
            for eps in xs:
                lhs = to_quantifier(sel_bind(eps, f)).runner
                rhs = quant_bind(to_quantifier(eps), mapped).runner
                for k in conts:
                    cases += 1
                    if lhs(k) != rhs(k):
                        failures += 1
    return cases, failures


def _exists_property() -> tuple[int, int]:
    # The final result of "choose, then use" equals using the chosen value:
    # for the boolean probe, over every predicate on booleans.
    cases = failures = 0
    probe = bool_probe()
    for table in itertools.product((False, True), repeat=2):
        def p(b: bool, table=table) -> bool:
            return table[int(b)]

        cases += 1
        exists = run_quantifier(to_quantifier(probe), p)
        if exists != p(run_selection(probe, p)):
            failures += 1
    return cases, failures


def morphism_reports() -> list[LawReport]:
    """to_quantifier preserves unit and bind; choosing then using agrees with
    the quantifier's answer for the boolean probe."""
    return [
        LawReport("morphism preserves unit (exhaustive)", *_morphism_unit()),
        LawReport("morphism preserves bind (exhaustive)", *_morphism_bind()),
        LawReport("probe: use-of-choice equals quantifier (4 predicates)", *_exists_property()),
    ]


# ---------------------------------------------------------------------------
# Context-dependent agents.
# ---------------------------------------------------------------------------


def agent_partition_reports() -> list[LawReport]:
    """fix and punk split every domain: each element is in exactly one,
    depending on whether its continuation result contains it."""
    cases = failures = 0
    for size in range(4):
        domain = tuple("abc"[:size])
        alternative_sets = _nondet_sequences(domain) if domain else [NondetValue(())]
        for combo in itertools.product(alternative_sets, repeat=max(size, 1)):
            if size == 0:
                k = {"": NondetValue(())}.__getitem__  # never called
            else:
                table = dict(zip(domain, combo))
                k = table.__getitem__
            fixed = run_selection(fix_selection(domain), k).alternatives
            punks = run_selection(punk_selection(domain), k).alternatives
            cases += 1
            together = fixed + punks
            if set(together) != set(domain) or len(together) != len(domain):
                failures += 1
                continue
            if fixed != tuple(x for x in domain if x in fixed):
                failures += 1
            elif punks != tuple(x for x in domain if x in punks):
                failures += 1
    return [LawReport("fix/punk partition the domain (exhaustive <=3)", cases, failures)]


# ---------------------------------------------------------------------------
# Differential suites: SAT, backward induction, simultaneous games.
# ---------------------------------------------------------------------------


def sat_correctness_report(max_arity: int = 3) -> LawReport:
    """Every truth-table formula up to ``max_arity``: the product solver
    satisfies the formula exactly when the exhaustive oracle finds a witness."""
    cases = failures = 0
    for arity in range(1, max_arity + 1):
        rows = 2**arity
        for table in itertools.product((False, True), repeat=rows):
            def evaluate(bits: tuple[bool, ...], table=table) -> bool:
                index = 0
                for b in bits:
                    index = index * 2 + int(b)
                return table[index]

            formula = BooleanFormula(arity, evaluate)
            cases += 1
            witness = sat_oracle(formula)
            found = formula.evaluate(sat_product(formula))
            if found != (witness is not None):
                failures += 1
    return LawReport(f"sat product vs oracle (exhaustive, arity <= {max_arity})", cases, failures)


def _random_sequential_game(rng: random.Random) -> SequentialGameSpec:
    n_players = rng.randrange(1, 4)
    n_stages = rng.randrange(1, 4)
    stages = tuple(
        Stage(
            controller=rng.randrange(n_players),
            moves=tuple(f"m{i}" for i in range(rng.randrange(1, 4))),
        )
        for _ in range(n_stages)
    )
    plays = list(itertools.product(*(stage.moves for stage in stages)))
    table = {
        play: tuple(rng.randrange(-2, 3) for _ in range(n_players)) for play in plays
    }
    return SequentialGameSpec(
        players=tuple(f"P{i}" for i in range(n_players)),
        stages=stages,
        payoff=table.__getitem__,
    )


def backward_induction_reports(seed: int = 0, samples: int = 1000) -> list[LawReport]:
    """The product-of-argmax solver against the explicit game-tree recursion:
    exhaustive over two-stage, two-move, {0,1}-payoff games, then randomized."""
    cases = failures = 0
    moves = ("a", "b")
    plays = list(itertools.product(moves, moves))
    for payoff_combo in itertools.product(
        tuple(itertools.product((0, 1), repeat=2)), repeat=len(plays)
    ):
        table = dict(zip(plays, payoff_combo))
        game = SequentialGameSpec(
            players=("P0", "P1"),
            stages=(Stage(0, moves), Stage(1, moves)),
            payoff=table.__getitem__,
        )
        cases += 1
        if backward_induction(game) != backward_induction_oracle(game):
            failures += 1
    exhaustive = LawReport("backward induction vs oracle (exhaustive 2x2x{0,1})", cases, failures)

    rng = random.Random(f"bi-{seed}")
    cases = failures = 0
    for _ in range(samples):
        game = _random_sequential_game(rng)
        cases += 1
        if backward_induction(game) != backward_induction_oracle(game):
            failures += 1
    randomized = LawReport("backward induction vs oracle (randomized)", cases, failures)
    return [exhaustive, randomized]


def sum_equilibria_report() -> LawReport:
    """The sum of two nondeterministic argmax players against the Nash oracle,
    over every 2x2 game with utilities in {0,1,2}."""
    moves = ("a", "b")
    cells = list(itertools.product(moves, moves))
    eff = _NONDET
    eps = nondet_argmax_selection(moves, key=lambda u: u[0])
    delta = nondet_argmax_selection(moves, key=lambda u: u[1])
    utility_pairs = list(itertools.product((0, 1, 2), repeat=2))
    cases = failures = 0
    for payoff_combo in itertools.product(utility_pairs, repeat=len(cells)):
        table = dict(zip(cells, payoff_combo))
        game = SimultaneousGameSpec(
            players=("Row", "Col"),
            moves=(moves, moves),
            payoff=lambda x, y, table=table: table[(x, y)],
        )
        combined = sum_selections(eps, delta, moves, moves)
        chosen = run_selection(combined, lambda pair: eff.unit(table[pair])).alternatives
        cases += 1
        if chosen != nash_oracle(game):
            failures += 1
    return LawReport("sum of argmax players vs nash oracle (6561 games)", cases, failures)


def run_all(seed: int = 0, samples: int = 1000) -> list[LawReport]:
    """Every suite, in a stable order; the CLI's ``laws`` subcommand prints
    these reports."""
    reports: list[LawReport] = []
    reports.extend(effect_law_reports(seed))
    reports.extend(selection_monad_reports())
    reports.extend(quantifier_monad_reports())
    reports.extend(randomized_monad_reports(seed, samples))
    reports.extend(morphism_reports())
    reports.extend(agent_partition_reports())
    reports.append(sat_correctness_report())
    reports.extend(backward_induction_reports(seed, samples))
    reports.append(sum_equilibria_report())
    return reports

"""Machine-checked evidence for the algebraic laws of the library.

Every suite here returns :class:`LawReport` values (a name plus case/failure
counts) so the same drivers back both the test suite and the ``laws`` CLI
subcommand.  Two kinds of sweep are used:

* exhaustive sweeps over the identity effect, where computations over finite
  carriers are enumerated as lookup tables — every chooser, every Kleisli
  map, every continuation within the stated carrier bounds;
* seeded randomized sweeps over the trace and nondeterminism effects, whose
  value spaces (logs, alternative sets) are unbounded.

Performance note: each law has one exhaustive sweep (:func:`_left_unit`,
:func:`_right_unit`, :func:`_assoc`), shared by the identity, trace and
nondet effects and by both monads.  It runs over :class:`_Tabulation`, which
interns computations by a table that fixes them, tabulated in two ways.  Over
the identity effect a monad computation on finite carriers is pure, so its
results over every continuation fix it; a base-effect value is its own
one-entry table.  Each *distinct* composed computation runs through the real
bind once and is interned.  Every case a direct sweep would visit (each
computation, Kleisli map and, for a monad, continuation) is still counted,
and checked as a comparison of two table entries.  A tabulation keeps the
ids of what it has bound (:meth:`_Tabulation.bind_row`), and a monad's
tabulations live for its whole sweep, so a composed computation is bound once
per monad across every carrier size, not once per size combination.  The
selection and quantifier sweeps cover 4.2 and 4.4 million cases with 4,706
and 5,028 binds and 18,764 and 19,526 runs on a continuation, in about 0.12 s
each; the three base effects take about 0.2 s, of which the trace effect's
447,600 cases take 0.15–0.2 s against 2.5 s for a direct sweep (2-core Linux
x86-64, Python 3.11).
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .core import (
    QUANTIFIER,
    SELECTION,
    Monad,
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
    """The computation that looks up ``k``'s values on ``range(n)``, read as
    a base-``r`` index, in ``table``.  Only carriers of size 1 and 2 are
    enumerated; any other ``n`` raises ``ValueError``."""
    if n == 1:
        def fn(k: Callable[[int], int]) -> int:
            return table[k(0)]
    elif n == 2:
        def fn(k: Callable[[int], int]) -> int:
            return table[k(0) * r + k(1)]
    else:
        raise ValueError(f"table computations need a carrier of size 1 or 2, not {n}")
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
    """Computations over carrier ``range(n)``, interned by their tables.

    ``tabulate(comp)`` is a tuple of ``width`` entries that fixes how ``comp``
    behaves wherever it is used, so two computations with one table are
    interchangeable.  A monad computation over the identity effect is pure and
    tabulates as its results over every continuation; a base-effect value is
    its own one-entry table.  The first ``base`` entries are the enumerated
    computations; binds may add more (a broken bind need not stay within them,
    and a trace bind makes longer logs).
    """

    def __init__(
        self, tabulate: Callable[[Any], tuple[Any, ...]], width: int, comps: Sequence[Any], n: int
    ):
        self.tabulate = tabulate
        self.width = width
        self.n = n
        self.comps: list[Any] = []
        self.tables: list[tuple[Any, ...]] = []
        self.ids: dict[tuple[Any, ...], int] = {}
        # bind_row's results, by (target, count, f_ids).  One bind serves the
        # whole tabulation, which is built per monad or per effect.
        self.rows: dict[tuple[_Tabulation, int, tuple[int, ...]], tuple[int, ...]] = {}
        for comp in comps:
            self.intern(comp)
        self.base = len(self.comps)

    def intern(self, comp: Any) -> int:
        """The id of ``comp``'s table."""
        table = self.tabulate(comp)
        found = self.ids.get(table)
        if found is None:
            found = self.ids[table] = len(self.comps)
            self.comps.append(comp)
            self.tables.append(table)
        return found

    def kleisli(self, ids: Sequence[int]) -> Callable[[int], Any]:
        """The map ``x -> comps[ids[x]]``."""
        return tuple([self.comps[i] for i in ids]).__getitem__

    def bind_row(
        self,
        bind: Callable[[Any, Any], Any],
        target: _Tabulation,
        count: int,
        f_ids: tuple[int, ...],
    ) -> tuple[int, ...]:
        """The ids in ``target`` of ``bind(comps[i], target.kleisli(f_ids))``
        for every ``i < count``, bound once and kept for later calls."""
        key = (target, count, f_ids)
        row = self.rows.get(key)
        if row is None:
            f = target.kleisli(f_ids)
            comps = self.comps
            row = self.rows[key] = tuple([target.intern(bind(comps[i], f)) for i in range(count)])
        return row

    def mismatches(self, lhs: Sequence[int], rhs: Sequence[int]) -> int:
        """Unequal entries of the tables ``lhs[i]`` and ``rhs[i]``, over every
        ``i``.  Ids are equal exactly when tables are, so only unequal ids
        need their entries counted one by one."""
        tables = self.tables
        return sum(
            sum(map(operator.ne, tables[a], tables[b])) for a, b in zip(lhs, rhs) if a != b
        )


# The three laws, each swept once for a monad or a base effect (either has
# ``unit`` and ``bind``).  A case is one (x, f), one m or one (m, f, g) on
# one table entry, as in a direct sweep, where m ranges over the base of
# ``tx``, and f and g over every map from ``tx``'s carrier into ``ty``'s base
# and from ``ty``'s carrier into ``tz``'s base.  Each case compares two
# entries of the interned tables.  Each distinct composed computation runs
# through the real ``bind`` once per set of tabulations: ``_assoc`` takes its
# three binds from ``bind_row``, so the same (m, f) pair is not bound again
# when another carrier size combination meets it.
_UnitBind = Monad | EffectInstance


def _left_unit(monad: _UnitBind, tx: _Tabulation, ty: _Tabulation) -> tuple[int, int]:
    """``bind(unit(x), f) == f(x)``."""
    unit, bind = monad.unit, monad.bind
    f_maps = list(itertools.product(range(ty.base), repeat=tx.n))
    failures = 0
    for f_ids in f_maps:
        f = ty.kleisli(f_ids)
        failures += ty.mismatches([ty.intern(bind(unit(x), f)) for x in range(tx.n)], f_ids)
    return tx.n * len(f_maps) * ty.width, failures


def _right_unit(monad: _UnitBind, tx: _Tabulation) -> tuple[int, int]:
    """``bind(m, unit) == m``."""
    unit, bind = monad.unit, monad.bind
    ids = range(tx.base)
    lhs = [tx.intern(bind(tx.comps[i], unit)) for i in ids]
    return tx.base * tx.width, tx.mismatches(lhs, ids)


def _assoc(monad: _UnitBind, tx: _Tabulation, ty: _Tabulation, tz: _Tabulation) -> tuple[int, int]:
    """``bind(bind(m, f), g) == bind(m, x -> bind(f(x), g))``."""
    bind = monad.bind
    base = tx.base
    f_maps = list(itertools.product(range(ty.base), repeat=tx.n))
    g_maps = list(itertools.product(range(tz.base), repeat=ty.n))
    # Per f, two gathers from a row of bind(y, g) ids: the left side's
    # bind(bind(m, f), g) over every m, and the ids of x -> bind(f(x), g).
    gathers = [(_gather(tx.bind_row(bind, ty, base, f_ids)), _gather(f_ids)) for f_ids in f_maps]
    count = len(ty.comps)
    rows = tx.rows
    failures = 0
    for g_ids in g_maps:
        then_g = ty.bind_row(bind, tz, count, g_ids)
        for lhs_of, fg_of in gathers:
            lhs = lhs_of(then_g)
            # bind(m, x -> bind(f(x), g)) depends on f and g only through fg.
            # Rows are never empty, so a miss is the only false value.
            fg = fg_of(then_g)
            rhs = rows.get((tz, base, fg)) or tx.bind_row(bind, tz, base, fg)
            if lhs != rhs:
                failures += tz.mismatches(lhs, rhs)
    return base * len(f_maps) * len(g_maps) * tz.width, failures


def _gather(ids: tuple[int, ...]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map ``row -> tuple(row[i] for i in ids)``, in C but for one id."""
    if len(ids) == 1:
        return lambda row, i=ids[0]: (row[i],)  # itemgetter(i) gives a scalar
    return operator.itemgetter(*ids)


def _exhaustive_reports(monad: Monad, tables: Callable[[int, int], list[Any]]) -> list[LawReport]:
    """The three monad laws of ``monad`` over every carrier size up to 2.

    ``tables(n, r)`` enumerates every computation over ``range(n)`` with
    results in ``range(r)``; they are tabulated on every continuation, and
    the laws run over every size of each carrier and of the results.
    """
    run = monad.run
    tabulations: dict[tuple[int, int], _Tabulation] = {}

    def tab(n: int, r: int) -> _Tabulation:
        if (n, r) not in tabulations:
            conts = _continuations(n, r)
            tabulations[n, r] = _Tabulation(
                lambda comp: tuple([run(comp, k) for k in conts]), len(conts), tables(n, r), n
            )
        return tabulations[n, r]

    def over_sizes(law: Callable[..., tuple[int, int]], arity: int) -> tuple[int, int]:
        cases = failures = 0
        for *carriers, r in itertools.product(_EXHAUSTIVE_SIZES, repeat=arity):
            c, fl = law(monad, *[tab(n, r) for n in carriers])
            cases += c
            failures += fl
        return cases, failures

    return [
        LawReport(f"{monad.name} left unit (exhaustive, identity)", *over_sizes(_left_unit, 3)),
        LawReport(f"{monad.name} right unit (exhaustive, identity)", *over_sizes(_right_unit, 2)),
        LawReport(f"{monad.name} associativity (exhaustive, identity)", *over_sizes(_assoc, 4)),
    ]


def selection_monad_reports() -> list[LawReport]:
    """Exhaustive identity-effect law sweeps for the selection monad.

    All carrier sizes up to 2 (values, both intermediate stages, and results),
    all choosers, Kleisli maps, and continuations as finite tables.
    """
    return _exhaustive_reports(SELECTION, _table_selections)


def quantifier_monad_reports() -> list[LawReport]:
    """Exhaustive identity-effect law sweeps for the quantifier monad."""
    return _exhaustive_reports(QUANTIFIER, _table_quantifiers)


# ---------------------------------------------------------------------------
# Randomized sweeps over the trace and nondeterminism effects.
#
# Choosers must be pure functions of their continuation; random ones are
# built by evaluating the continuation across the whole carrier, reducing the
# results to an integer digest with per-chooser random coefficients, and
# selecting deterministically from that digest.  Seeded random.Random only —
# results are reproducible for a fixed seed.
# ---------------------------------------------------------------------------


def _digest_tuple(value: tuple[Any, ...], memo: dict[Any, int]) -> int:
    found = memo.get(value)
    if found is None:
        total = 0
        for i, item in enumerate(value, 1):
            total = (total * 31 + i * _digest(item, memo)) % 9973
        found = memo[value] = total
    return found


# The digest of a value by its type; a subclass takes the first entry it is an
# instance of, in this order.
_DIGESTS: dict[type, Callable[[Any, dict[Any, int]], int]] = {
    bool: lambda value, memo: int(value),
    int: lambda value, memo: value % 9973,
    str: lambda value, memo: sum(map(ord, value)) % 9973,
    tuple: _digest_tuple,
    TraceValue: lambda value, memo: (
        _digest(value.log, memo) * 5 + _digest(value.value, memo) + len(value.log)
    ) % 9973,
    NondetValue: lambda value, memo: (
        _digest(value.alternatives, memo) * 7 + len(value.alternatives)
    ) % 9973,
}


def _digest(value: Any, memo: dict[Any, int]) -> int:
    """An integer in ``range(9973)`` that depends on ``value`` only.

    ``memo`` keeps the digests of the tuples met so far, by equality; it must
    see values of one sweep only, where equal tuples have equal digests (a
    tuple that equals a digested one but holds a float is not rejected).
    """
    handler = _DIGESTS.get(type(value))
    if handler is None:
        handler = next((h for t, h in _DIGESTS.items() if isinstance(value, t)), None)
        if handler is None:
            raise TypeError(f"no digest for {type(value).__name__}")
    return handler(value, memo)


def _random_trace_eff_value(rng: random.Random, r_values: Sequence[int]) -> TraceValue:
    log = tuple(f"t{rng.randrange(4)}" for _ in range(rng.randrange(3)))
    return TraceValue(log, rng.choice(list(r_values)))


def _random_nondet_eff_value(rng: random.Random, r_values: Sequence[int]) -> NondetValue:
    picks = [v for v in r_values if rng.random() < 0.6]
    rng.shuffle(picks)
    return NondetValue(tuple(picks))


def _random_trace_computation(
    monad: Monad,
    rng: random.Random,
    domain: Sequence[int],
    answers: Sequence[int],
    memo: dict[Any, int],
) -> Any:
    """A random trace computation of ``monad``: it answers with the element of
    ``answers`` picked by a random digest of the continuation over ``domain``,
    and logs its own lines after the log of one probed result, if any."""
    coefficients = [rng.randrange(1, 9973) for _ in domain]
    offset = rng.randrange(9973)
    # Lines "s0".."s3" for a selection, "q0".."q3" for a quantifier.
    own_log = tuple(f"{monad.name[0]}{rng.randrange(4)}" for _ in range(rng.randrange(2)))
    include_probe = rng.randrange(len(domain) + 1)  # len(domain) means "none"
    points = tuple(domain)
    answers = tuple(answers)

    def fn(k: Callable[[int], TraceValue]) -> TraceValue:
        results = [k(x) for x in points]
        acc = offset
        for c, res in zip(coefficients, results):
            acc = (acc + c * _digest(res, memo)) % 9973
        log = own_log
        if include_probe < len(points):
            log = results[include_probe].log + log
        return TraceValue(log, answers[acc % len(answers)])

    return monad.computation(fn, _TRACE)


def _random_nondet_selection(
    rng: random.Random, domain: Sequence[int], r_values: Sequence[int], memo: dict[Any, int]
) -> SelectionComputation:
    coefficients = [rng.randrange(1, 9973) for _ in domain]
    offset = rng.randrange(9973)
    keep_mod = rng.randrange(2, 4)
    points = tuple(domain)

    def chooser(k: Callable[[int], NondetValue]) -> NondetValue:
        digests = [_digest(k(x), memo) for x in points]
        total = (offset + sum(c * d for c, d in zip(coefficients, digests))) % 9973
        alternatives = tuple(
            x
            for x, c, d in zip(points, coefficients, digests)
            if (total + c + d) % keep_mod != 0
        )
        return NondetValue(alternatives)

    return SelectionComputation(chooser, _NONDET)


def _random_nondet_quantifier(
    rng: random.Random, domain: Sequence[int], r_values: Sequence[int], memo: dict[Any, int]
) -> QuantifierComputation:
    coefficients = [rng.randrange(1, 9973) for _ in domain]
    offset = rng.randrange(9973)
    keep_mod = rng.randrange(2, 4)
    merge_probe = rng.randrange(len(domain) + 1)
    values = tuple(r_values)
    points = tuple(domain)

    def runner(k: Callable[[int], NondetValue]) -> NondetValue:
        results = [k(x) for x in points]
        total = (
            offset + sum(c * _digest(res, memo) for c, res in zip(coefficients, results))
        ) % 9973
        own = [v for i, v in enumerate(values) if (total + i) % keep_mod != 0]
        merged: list[int] = []
        if merge_probe < len(points):
            merged.extend(results[merge_probe].alternatives)
        for v in own:
            if v not in merged:
                merged.append(v)
        return NondetValue(tuple(merged))

    return QuantifierComputation(runner, _NONDET)


# Random computations by monad and effect, as (rng, domain, result values,
# digest memo) -> computation.  A selection answers with a point of its domain and a
# quantifier with a result value; over nondet each has its own generator.
_RANDOM_COMPUTATIONS: dict[tuple[str, str], Callable[..., Any]] = {
    ("selection", "Trace"): lambda rng, xs, rs, memo: _random_trace_computation(
        SELECTION, rng, xs, xs, memo
    ),
    ("quantifier", "Trace"): lambda rng, xs, rs, memo: _random_trace_computation(
        QUANTIFIER, rng, xs, rs, memo
    ),
    ("selection", "Nondet"): _random_nondet_selection,
    ("quantifier", "Nondet"): _random_nondet_quantifier,
}


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError("samples must be at least 0")


def _randomized_monad_failures(
    monad: Monad, eff: EffectInstance, law: str, seed: int, samples: int
) -> tuple[int, int]:
    """Cases and failures of one law of ``monad`` over ``eff`` (the trace or
    the nondet effect) on ``samples`` random cases drawn from ``seed``."""
    rng = random.Random(repr((seed, monad.name, eff.name, law)))
    rand_comp = _RANDOM_COMPUTATIONS[monad.name, eff.name]
    rand_eff_value = _random_trace_eff_value if eff is _TRACE else _random_nondet_eff_value
    unit, bind, run = monad.unit, monad.bind, monad.run
    memo: dict[Any, int] = {}  # digests of this sweep's tuples, for its computations
    failures = 0
    for _ in range(samples):
        nx = rng.randrange(1, 4)
        ny = rng.randrange(1, 4)
        nz = rng.randrange(1, 4)
        xs = tuple(range(nx))
        ys = tuple(range(ny))
        zs = tuple(range(nz))
        r_values = tuple(range(rng.randrange(1, 4)))
        if law == "left unit":
            target = [rand_comp(rng, ys, r_values, memo) for _ in xs]
            f = target.__getitem__
            x = rng.randrange(nx)
            k_table = [rand_eff_value(rng, r_values) for _ in ys]
            k = k_table.__getitem__
            if run(bind(unit(x, eff), f), k) != run(f(x), k):
                failures += 1
        elif law == "right unit":
            eps = rand_comp(rng, xs, r_values, memo)
            k_table = [rand_eff_value(rng, r_values) for _ in xs]
            k = k_table.__getitem__
            if run(bind(eps, lambda x: unit(x, eff)), k) != run(eps, k):
                failures += 1
        else:  # associativity
            eps = rand_comp(rng, xs, r_values, memo)
            f_list = [rand_comp(rng, ys, r_values, memo) for _ in xs]
            g_list = [rand_comp(rng, zs, r_values, memo) for _ in ys]
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
    deterministic for a fixed seed.  Raises ``ValueError`` if ``samples`` is
    negative.
    """
    _check_samples(samples)
    return [
        LawReport(
            f"{monad.name} {law} (randomized, {eff.name.lower()})",
            *_randomized_monad_failures(monad, eff, law, seed, samples),
        )
        for monad in (SELECTION, QUANTIFIER)
        for eff in (_TRACE, _NONDET)
        for law in ("left unit", "right unit", "associativity")
    ]


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
    carrier triple ``(n_a, n_b, n_c)`` in ``sizes`` all three laws run, with
    ``m`` over ``values(n_a)`` and the Kleisli maps ``f``, ``g`` tabulated
    into ``values(n_b)`` and ``values(n_c)``.  The sweeps are the monads' own,
    with each value as its own one-entry table, so a case compares two ids;
    on the trace effect (447,600 cases at sizes up to 3) this takes about
    0.15–0.2 s instead of 2.5 s for a direct sweep.
    """
    cases = failures = 0
    for n_a, n_b, n_c in itertools.product(sizes, repeat=3):
        # Fresh per triple: a trace bind makes longer logs, and a tabulation
        # shared across triples would bind them again and again.
        ta, tb, tc = [_Tabulation(lambda m: (m,), 1, values(n), n) for n in (n_a, n_b, n_c)]
        for c, fl in (_left_unit(eff, ta, tb), _right_unit(eff, ta), _assoc(eff, ta, tb, tc)):
            cases += c
            failures += fl
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
    exhaustive over two-stage, two-move, {0,1}-payoff games, then randomized
    (``samples`` games; ``ValueError`` if negative)."""
    _check_samples(samples)
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
    combined = sum_selections(eps, delta, moves, moves)
    utility_pairs = list(itertools.product((0, 1, 2), repeat=2))
    cases = failures = 0
    for payoff_combo in itertools.product(utility_pairs, repeat=len(cells)):
        table = dict(zip(cells, payoff_combo))
        game = SimultaneousGameSpec(
            players=("Row", "Col"),
            moves=(moves, moves),
            payoff=lambda x, y, table=table: table[(x, y)],
        )
        chosen = run_selection(combined, lambda pair: eff.unit(table[pair])).alternatives
        cases += 1
        if chosen != nash_oracle(game):
            failures += 1
    return LawReport("sum of argmax players vs nash oracle (6561 games)", cases, failures)


def run_all(seed: int = 0, samples: int = 1000) -> list[LawReport]:
    """Every suite, in a stable order; the CLI's ``laws`` subcommand prints
    these reports.  Raises ``ValueError`` if ``samples`` is negative."""
    _check_samples(samples)
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

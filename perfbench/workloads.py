"""The four workloads: seeded items, set-up, solving, checking and tracing.

Each workload generates a pool of items from its seed, turns their text into
specs (the timed set-up), computes every expected answer independently, and
then solves items through selcc's public API.  ``solve`` takes the hooks of
:mod:`tracing`, and the traced and untraced runs take the same path, except
where a boundary cannot be wrapped from outside: sat's ``demo-sat`` items
(traced: ``sat_callcc`` directly), nondet's games (traced: the product is
rebuilt from counting players) and laws (traced: the nine suite functions
instead of ``selcc laws``).

The pools repeat a fixed cycle of item shapes.  The shapes are chosen so the
median latency falls inside one shape and the tail inside the slowest one,
which keeps both figures steady from seed to seed; the seed changes only the
formulas, payoffs and sets.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any

import gen
import refs
from tracing import Counter, Recorder

CYCLES = 12


@dataclass(frozen=True)
class Item:
    id: int
    kind: str
    data: Any
    text: str = ""


class Workload:
    name = ""
    item_units = 1  # items counted per solved pool item

    def generate(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def setup(self, lib: Any, items: list[Item], tr: Counter) -> list[Any]:
        """Turn each item's text into the spec it is solved from."""
        raise NotImplementedError

    def expected(self, lib: Any, items: list[Item], specs: list[Any]) -> list[Any]:
        raise NotImplementedError

    def solve(self, lib: Any, item: Item, spec: Any, tr: Counter) -> Any:
        raise NotImplementedError

    def check(self, item: Item, answer: Any, expected: Any) -> tuple[int, int]:
        """(items attempted, items failed) for one solved item."""
        return 1, int(answer != expected)

    def yardstick(self, item: Item) -> str:
        """The :mod:`calibrate` yardstick an item's latency is scaled by."""
        return "search"

    def user_evals(self, evals: dict[int, int]) -> int:
        """User-continuation calls in one pass over the pool."""
        return sum(evals.values())

    def oracles(self, lib: Any, items: list[Item], specs: list[Any], tr: Recorder) -> None:
        """Traced runs only: run the library's reference solvers in spans."""


# ---------------------------------------------------------------------------
# sat
# ---------------------------------------------------------------------------


class Sat(Workload):
    """Random 3-CNF near the satisfiability threshold, solved by the product of
    boolean probes; every fifth item goes through ``selcc demo-sat``."""

    name = "sat"
    # (solver, arity) per slot; satisfiability alternates between cycles.
    CYCLE = (("product", 10), ("callcc", 8), ("product", 11), ("product", 11), ("product", 12))

    def generate(self, seed: int) -> list[Item]:
        rng = gen.rng_for(self.name, seed)
        items = []
        for c in range(CYCLES):
            for slot, (solver, n) in enumerate(self.CYCLE):
                want_sat = (c + slot) % 2 == 0
                while True:
                    clauses = gen.cnf_clauses(rng, n)
                    if refs.sat_reference(clauses, n)[1] == want_sat:
                        break
                items.append(Item(len(items), solver, (n, clauses), gen.cnf_text(clauses)))
        return items

    def setup(self, lib, items, tr):
        specs = []
        for item in items:
            with tr.span("cli.parse", item.id):
                specs.append(lib.parse_formula(item.text, item.data[0]))
        return specs

    def expected(self, lib, items, specs):
        out = []
        for item, formula in zip(items, specs):
            n, clauses = item.data
            bits, satisfiable = refs.sat_reference(clauses, n)
            oracle = lib.sat_oracle(formula)
            agrees = (oracle is None) != satisfiable and (oracle is None or refs.satisfies(clauses, oracle))
            if not agrees:
                out.append("sat_oracle disagrees with the reference")
            elif item.kind == "callcc":
                out.append(refs.render_assignment(bits))
            else:
                out.append(bits)
        return out

    def solve(self, lib, item, spec, tr):
        n = item.data[0]
        if item.kind == "product":
            with tr.span("search.sat_product"):
                return lib.sat_product(lib.BooleanFormula(n, tr.user(spec.evaluate)))
        if not tr.traced:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = lib.main(["demo-sat", "--vars", str(n), "--formula", item.text])
            lines = buffer.getvalue().splitlines()
            return lines[-1] if code == 0 and lines else f"exit {code}"
        # The CLI gives no way to wrap the formula, so the traced run calls the
        # function behind ``demo-sat`` and renders its answer the same way.
        with tr.span("search.sat_callcc") as span:
            log, bits = lib.sat_callcc(lib.BooleanFormula(n, tr.user(spec.evaluate)))
            span["lines"] = len(log) + 1
        return lib.format_assignment(bits)

    def oracles(self, lib, items, specs, tr):
        for item, formula in zip(items, specs):
            if item.kind == "product":
                with tr.span("search.sat_oracle", item.id):
                    lib.sat_oracle(lib.BooleanFormula(formula.arity, tr.user(formula.evaluate)))


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------


class Games(Workload):
    """Sequential games by backward induction and simultaneous games by the
    sum of nondeterministic argmax players, from generated JSON documents."""

    name = "games"
    # Wide-shallow to deep-binary sequential games, and two simultaneous
    # sizes.  The 3x6 games are a third of the items and sit in the middle of
    # the latency order, so the median falls inside one shape.
    CYCLE = (("seq", 8, 3), ("sim", 20), ("seq", 3, 6), ("seq", 3, 6), ("sim", 30), ("seq", 2, 8))

    def generate(self, seed: int) -> list[Item]:
        rng = gen.rng_for(self.name, seed)
        items = []
        for _ in range(CYCLES):
            for shape in self.CYCLE:
                if shape[0] == "seq":
                    text = gen.sequential_doc(rng, shape[1], shape[2])
                else:
                    text = gen.simultaneous_doc(rng, shape[1])
                items.append(Item(len(items), shape[0], shape[1:], text))
        return items

    def setup(self, lib, items, tr):
        specs = []
        for item in items:
            with tr.span("cli.parse", item.id):
                game = lib.parse_game(json.loads(item.text))
                if item.kind == "sim":
                    rows, cols = game.moves
                    eps = lib.nondet_argmax_selection(rows, key=lambda u: u[0])
                    delta = lib.nondet_argmax_selection(cols, key=lambda u: u[1])
                    game = (game, lib.sum_selections(eps, delta, rows, cols))
            specs.append(game)
        return specs

    def expected(self, lib, items, specs):
        return [
            lib.backward_induction_oracle(spec) if item.kind == "seq" else lib.nash_oracle(spec[0])
            for item, spec in zip(items, specs)
        ]

    def solve(self, lib, item, spec, tr):
        if item.kind == "seq":
            game = lib.SequentialGameSpec(spec.players, spec.stages, tr.user(spec.payoff))
            with tr.span("games.backward_induction"):
                return lib.backward_induction(game)
        game, combined = spec
        unit = lib.nondet_effect().unit
        k = tr.user(lambda pair: unit(game.payoff(*pair)))
        with tr.span("games.sum_selections"):
            return lib.run_selection(combined, k).alternatives

    def oracles(self, lib, items, specs, tr):
        for item, spec in zip(items, specs):
            if item.kind == "seq":
                game = lib.SequentialGameSpec(spec.players, spec.stages, tr.user(spec.payoff))
                with tr.span("games.backward_induction_oracle", item.id):
                    lib.backward_induction_oracle(game)
            else:
                with tr.span("games.nash_oracle", item.id):
                    lib.nash_oracle(spec[0])


# ---------------------------------------------------------------------------
# nondet
# ---------------------------------------------------------------------------


class Nondet(Workload):
    """(a) all subgame-perfect plays of games with all ties or no ties, by the
    product of nondeterministic argmax players: many small binds; (b) one
    quantifier bind over a large set of alternatives: one big dedup."""

    name = "nondet"
    CYCLE = (("tie", 4, 4), ("free", 3, 5), ("tie", 2, 6), ("free", 5, 4), ("big", 6000))

    def generate(self, seed: int) -> list[Item]:
        rng = gen.rng_for(self.name, seed)
        items = []
        for _ in range(CYCLES):
            for shape in self.CYCLE:
                if shape[0] == "big":
                    data = gen.big_set(rng, shape[1])
                else:
                    _, branching, depth = shape
                    data = (branching, depth) + gen.tie_game(rng, branching, depth, shape[0] == "tie")
                items.append(Item(len(items), shape[0], data))
        return items

    def setup(self, lib, items, tr):
        specs = []
        for item in items:
            if item.kind == "big":
                specs.append(lib.NondetValue(item.data))
                continue
            branching, _, controllers, _ = item.data
            players = [
                lib.nondet_argmax_selection(range(branching), key=lambda u, c=c: u[c])
                for c in controllers
            ]
            specs.append((players, lib.sel_sequence(players)))
        return specs

    def expected(self, lib, items, specs):
        out = []
        for item in items:
            if item.kind == "big":
                out.append(refs.dedup_reference([big_k_value(x) for x in item.data]))
            elif item.kind == "tie":
                out.append(refs.all_plays(item.data[0], item.data[1]))
            else:
                branching, _, controllers, table = item.data
                out.append((refs.spe_play(controllers, branching, table),))
        return out

    def yardstick(self, item):
        # The big bind is one long dedup by list scan.
        return "scan" if item.kind == "big" else "search"

    def solve(self, lib, item, spec, tr):
        eff = lib.nondet_effect()
        unit = eff.unit
        if item.kind == "big":
            k = tr.user(lambda x: unit(big_k_value(x)))
            with tr.span("core.run_quantifier"):
                return lib.run_quantifier(lib.quant_lift(spec, tr.effect(lib, eff)), k).alternatives
        players, product = spec
        if tr.traced:
            product = lib.sel_sequence([tr.selection(lib, p) for p in players])
        table = item.data[3]
        k = tr.user(lambda play: unit(table[play]))
        with tr.span("core.run_selection"):
            return lib.run_selection(product, k).alternatives


def big_k_value(x: int) -> int:
    """The continuation of the big bind: :func:`gen.big_set` makes one input
    in ten share its output with another, so dedup has work to do."""
    return x // 3


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

# Cases per suite at the default sample count; none depends on the seed.
SUITE_CASES = {
    "effect_laws": 462505,
    "selection_monad": 4222293,
    "quantifier_monad": 4414816,
    "randomized_monad": 12000,
    "morphism": 16512,
    "agent_partition": 4124,
    "sat_correctness": 276,
    "backward_induction": 1256,
    "sum_equilibria": 6561,
}
LAW_SUITES = tuple(SUITE_CASES)
LAW_CASES = sum(SUITE_CASES.values())
LAW_REPORTS = 29


def law_suite_calls(lib: Any, seed: int) -> dict[str, Any]:
    """The nine public suite functions, in ``selcc laws`` order."""
    return {
        "effect_laws": lambda: lib.effect_law_reports(seed),
        "selection_monad": lib.selection_monad_reports,
        "quantifier_monad": lib.quantifier_monad_reports,
        "randomized_monad": lambda: lib.randomized_monad_reports(seed, 1000),
        "morphism": lib.morphism_reports,
        "agent_partition": lib.agent_partition_reports,
        "sat_correctness": lambda: [lib.sat_correctness_report()],
        "backward_induction": lambda: lib.backward_induction_reports(seed, 1000),
        "sum_equilibria": lambda: [lib.sum_equilibria_report()],
    }


def check_law_transcript(code: int, transcript: str) -> int:
    """Failed cases in a ``selcc laws`` transcript; every case fails if the
    exit code, the suite count or the case total is off."""
    lines = transcript.splitlines()
    summary = f"{LAW_REPORTS}/{LAW_REPORTS} suites passed, {LAW_CASES} cases total"
    failed = 0
    for line in lines:
        if line.startswith("FAIL "):
            failed += max(1, int(line.split("(")[-1].split("/")[0]))
    if code != 0 or not lines or lines[-1] != summary or len(lines) != LAW_REPORTS + 1:
        return LAW_CASES
    return failed


class Laws(Workload):
    """One full ``selcc laws`` pass per item, in-process, output captured."""

    name = "laws"
    item_units = LAW_CASES

    def user_evals(self, evals):
        # The CLI takes no user continuation; each law case evaluates both
        # sides of its law once, so the case count stands in.
        return LAW_CASES

    def generate(self, seed: int) -> list[Item]:
        return [Item(0, "pass", seed)]

    def setup(self, lib, items, tr):
        return [None]

    def expected(self, lib, items, specs):
        return [None]

    def solve(self, lib, item, spec, tr):
        if tr.traced:
            reports = {}
            for suite, call in law_suite_calls(lib, item.data).items():
                with tr.span(f"laws.{suite}") as span:
                    reports[suite] = call()
                    span["cases"] = sum(r.cases for r in reports[suite])
            return reports
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = lib.main(["laws", "--seed", str(item.data)])
        return code, buffer.getvalue()

    def check(self, item, answer, expected):
        if isinstance(answer, dict):
            failed = sum(r.failures for reports in answer.values() for r in reports)
            cases = {suite: sum(r.cases for r in reports) for suite, reports in answer.items()}
            count = sum(len(reports) for reports in answer.values())
            if cases != SUITE_CASES or count != LAW_REPORTS:
                failed = LAW_CASES
            return LAW_CASES, failed
        return LAW_CASES, check_law_transcript(*answer)


WORKLOADS = {w.name: w for w in (Sat(), Games(), Nondet(), Laws())}

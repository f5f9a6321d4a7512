"""Command-line front-end.

Subcommands:

* ``demo-callcc --which foo|bar`` — run a dialogue demo and print its trace
  log one line per entry, then the numeric result on its own line;
* ``demo-sat --vars N --formula S`` — run the instrumented SAT search and
  print its trace, then the final assignment (at most
  :data:`MAX_DEMO_SAT_VARS` variables and :data:`MAX_FORMULA_DEPTH` levels);
* ``solve FILE`` — solve a JSON game file (sequential games by backward
  induction, simultaneous games by the sum of argmax players);
* ``laws [--seed N] [--samples K]`` — run every law suite and report
  pass/fail counts.

Exit codes: 0 success, 1 law failures, 2 usage/validation errors.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Any, Callable, Sequence

from .callcc import demo_bar, demo_foo
from .core import run_selection
from .effects import nondet_effect
from .games import (
    SequentialGameSpec,
    SimultaneousGameSpec,
    Stage,
    _repeated_index,
    _validate_sequential,
    backward_induction,
    nondet_argmax_selection,
    sum_selections,
)
from .laws import run_all
from .search import BooleanFormula, format_assignment, sat_callcc


class FormulaParseError(ValueError):
    """Raised when a formula string cannot be parsed; names the position."""


class GameFileError(ValueError):
    """Raised when a game document fails validation."""


# The deepest sequential game ``solve`` accepts.  Backward induction nests
# about six Python frames per stage at the payoff call and seven on its
# deepest path, so 100 stages stay inside the default recursion limit of 1000
# (measured on single-move games: 142 stages still solve in-process, 143 do
# not; under pytest, 136 and 137).
MAX_SEQUENTIAL_STAGES = 100

# The most variables ``demo-sat`` accepts, the same arity limit as
# ``sat_oracle``.  The search's trace log has 5 * 2**n - 4 lines, so time and
# memory double per variable (measured: 20 variables print 5,242,876 lines
# in 10.4 s with a peak RSS of 117 MB on a 2-core Linux x86-64 machine with
# Python 3.11).
MAX_DEMO_SAT_VARS = 20

# How deep ``parse_formula`` lets "(" and "!" nest, and "!", "&" and "|"
# closures.  The parser recurses through four frames per parenthesis and one
# per "!", and evaluation through one frame per closure, so without a bound
# deep formulas end in a RecursionError (measured in-process at --vars 2:
# 247 nested parentheses still parse, and about 972 "!"s or terms of a flat
# "|" chain still evaluate).  The SAT search evaluates the formula about 8
# frames deeper per variable; at --vars 20 a formula of 200 "!"s still runs
# (10.6 s with its output sent to /dev/null, peak RSS 117 MB, on a 2-core
# Linux x86-64 machine with Python 3.11).  A 3-CNF of 51 clauses nests 53
# closures.
MAX_FORMULA_DEPTH = 200


# ---------------------------------------------------------------------------
# Boolean formula mini-parser.
#
# Grammar (precedence low to high, both operators left-associative):
#   or   := and ("|" and)*
#   and  := not ("&" not)*
#   not  := "!" not | atom
#   atom := decimal-index | "(" or ")"
# ---------------------------------------------------------------------------

_Node = Callable[[Sequence[bool]], bool]


def _lex(src: str) -> list[tuple[str, int, int]]:
    tokens: list[tuple[str, int, int]] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(src) and src[i].isdigit():
                i += 1
            tokens.append(("index", int(src[start:i]), start))
            continue
        if ch in "!&|()":
            tokens.append((ch, 0, i))
            i += 1
            continue
        raise FormulaParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_formula(src: str, arity: int) -> BooleanFormula:
    """Parse ``src`` into a total formula over ``arity`` variables.

    Variables are decimal indices; ``!`` binds tighter than ``&``, which binds
    tighter than ``|``; parentheses group.  Out-of-range indices, syntax
    errors and nesting deeper than :data:`MAX_FORMULA_DEPTH` levels raise
    :class:`FormulaParseError` naming the offending position.
    """
    tokens = _lex(src)
    pos = 0

    def peek() -> tuple[str, int, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, int, int]:
        nonlocal pos
        token = peek()
        if token is None:
            raise FormulaParseError(f"unexpected end of input at position {len(src)}")
        pos += 1
        return token

    def too_deep(at: int) -> FormulaParseError:
        return FormulaParseError(
            f"formula nests deeper than {MAX_FORMULA_DEPTH} levels at position {at}"
        )

    # ``level`` counts the "(" and "!" being parsed, which the parser recurses
    # through.  Each function returns a node and its depth, the nesting of its
    # "!", "&" and "|" closures, which evaluation recurses through.
    def parse_or(level: int) -> tuple[_Node, int]:
        node, depth = parse_and(level)
        while (token := peek()) is not None and token[0] == "|":
            take()
            right, right_depth = parse_and(level)
            depth = (depth if depth > right_depth else right_depth) + 1
            if depth > MAX_FORMULA_DEPTH:
                raise too_deep(token[2])
            node = (lambda l, r: lambda bits: l(bits) or r(bits))(node, right)
        return node, depth

    def parse_and(level: int) -> tuple[_Node, int]:
        node, depth = parse_not(level)
        while (token := peek()) is not None and token[0] == "&":
            take()
            right, right_depth = parse_not(level)
            depth = (depth if depth > right_depth else right_depth) + 1
            if depth > MAX_FORMULA_DEPTH:
                raise too_deep(token[2])
            node = (lambda l, r: lambda bits: l(bits) and r(bits))(node, right)
        return node, depth

    def parse_not(level: int) -> tuple[_Node, int]:
        token = peek()
        if token is not None and token[0] == "!":
            take()
            if level >= MAX_FORMULA_DEPTH:
                raise too_deep(token[2])
            inner, depth = parse_not(level + 1)
            if depth >= MAX_FORMULA_DEPTH:
                raise too_deep(token[2])
            return (lambda bits: not inner(bits)), depth + 1
        return parse_atom(level)

    def parse_atom(level: int) -> tuple[_Node, int]:
        kind, value, at = take()
        if kind == "index":
            if value >= arity:
                raise FormulaParseError(
                    f"variable index {value} out of range for arity {arity} at position {at}"
                )
            return (lambda bits, i=value: bits[i]), 0
        if kind == "(":
            if level >= MAX_FORMULA_DEPTH:
                raise too_deep(at)
            node = parse_or(level + 1)
            closing = take()
            if closing[0] != ")":
                raise FormulaParseError(f"expected ')' at position {closing[2]}")
            return node
        raise FormulaParseError(f"unexpected token {kind!r} at position {at}")

    node, _ = parse_or(0)
    if (token := peek()) is not None:
        raise FormulaParseError(f"unexpected token {token[0]!r} at position {token[2]}")
    return BooleanFormula(arity, lambda bits: bool(node(bits)))


# ---------------------------------------------------------------------------
# Game files.
# ---------------------------------------------------------------------------


def _parse_utilities(raw: Any, key: str, n_players: int) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(u, int) and not isinstance(u, bool) for u in raw
    ):
        raise GameFileError(f"payoff for {key!r} must be an array of integers")
    if len(raw) != n_players:
        raise GameFileError(
            f"payoff for {key!r} has {len(raw)} entries, expected {n_players}"
        )
    return tuple(raw)


def _parse_payoff_table(
    payoffs: Any, plays: list[tuple[str, ...]], n_players: int
) -> dict[tuple[str, ...], tuple[int, ...]]:
    if not isinstance(payoffs, dict):
        raise GameFileError('"payoffs" must be an object')
    table: dict[tuple[str, ...], tuple[int, ...]] = {}
    expected_keys = set()
    for play in plays:
        key = ",".join(play)
        expected_keys.add(key)
        if key not in payoffs:
            raise GameFileError(f"missing payoff for play {key!r}")
        table[play] = _parse_utilities(payoffs[key], key, n_players)
    for key in payoffs:
        if key not in expected_keys:
            raise GameFileError(f"payoff key {key!r} does not match any play")
    return table


def _string_list(raw: Any, what: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise GameFileError(f"{what} must be an array of strings")
    return tuple(raw)


def parse_game(doc: dict) -> SequentialGameSpec | SimultaneousGameSpec:
    """Validate and convert a game document (parsed JSON) into a game spec.

    Sequential games carry "players", "stages" (controller index + move
    list each) and a "payoffs" object keyed by comma-joined plays; the payoff
    table must be total, every utility vector must have one entry per player,
    and there may be at most :data:`MAX_SEQUENTIAL_STAGES` stages.
    Simultaneous games carry two players, two move lists and a
    payoff object keyed by "rowmove,colmove".  No move list may name a move
    twice: each move is one alternative, and the solvers' nondeterministic
    answers hold every alternative once.
    """
    if not isinstance(doc, dict):
        raise GameFileError("game document must be a JSON object")
    kind = doc.get("type")
    if kind == "sequential":
        players = _string_list(doc.get("players"), '"players"')
        raw_stages = doc.get("stages")
        if not isinstance(raw_stages, list):
            raise GameFileError('"stages" must be an array')
        if len(raw_stages) > MAX_SEQUENTIAL_STAGES:
            raise GameFileError(
                f"sequential game has {len(raw_stages)} stages; "
                f"the limit is {MAX_SEQUENTIAL_STAGES}"
            )
        stages = []
        for index, raw in enumerate(raw_stages):
            if not isinstance(raw, dict):
                raise GameFileError(f"stage {index} must be an object")
            controller = raw.get("controller")
            if not isinstance(controller, int) or isinstance(controller, bool):
                raise GameFileError(f"stage {index} controller must be an integer")
            moves = _string_list(raw.get("moves"), f"stage {index} moves")
            stages.append(Stage(controller, moves))
        try:
            _validate_sequential(players, stages)
        except ValueError as exc:
            raise GameFileError(str(exc)) from exc
        plays = [tuple(p) for p in itertools.product(*(s.moves for s in stages))]
        table = _parse_payoff_table(doc.get("payoffs"), plays, len(players))
        return SequentialGameSpec(players, tuple(stages), table.__getitem__)
    if kind == "simultaneous":
        players = _string_list(doc.get("players"), '"players"')
        if len(players) != 2:
            raise GameFileError("simultaneous game needs exactly two players")
        raw_moves = doc.get("moves")
        if not isinstance(raw_moves, list) or len(raw_moves) != 2:
            raise GameFileError('"moves" must be an array of two move lists')
        row_moves = _string_list(raw_moves[0], "first move list")
        col_moves = _string_list(raw_moves[1], "second move list")
        if not row_moves or not col_moves:
            raise GameFileError("move lists must be nonempty")
        for what, moves in (("first", row_moves), ("second", col_moves)):
            repeated = _repeated_index(moves)
            if repeated is not None:
                raise GameFileError(f"{what} move list repeats move {moves[repeated]!r}")
        pairs = [(x, y) for x in row_moves for y in col_moves]
        table = _parse_payoff_table(doc.get("payoffs"), [tuple(p) for p in pairs], 2)
        return SimultaneousGameSpec(
            (players[0], players[1]),
            (row_moves, col_moves),
            lambda x, y: table[(x, y)],
        )
    raise GameFileError('"type" must be "sequential" or "simultaneous"')


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_demo_callcc(args: argparse.Namespace) -> int:
    demo = demo_foo if args.which == "foo" else demo_bar
    log, result = demo((lambda n: n * 2) if args.outer == "double" else None)
    for line in log:
        print(line)
    print(result)
    return 0


def _cmd_demo_sat(args: argparse.Namespace) -> int:
    if args.vars < 1:
        print("error: --vars must be at least 1", file=sys.stderr)
        return 2
    if args.vars > MAX_DEMO_SAT_VARS:
        print(
            f"error: --vars is {args.vars}; the limit is {MAX_DEMO_SAT_VARS}",
            file=sys.stderr,
        )
        return 2
    try:
        formula = parse_formula(args.formula, args.vars)
    except FormulaParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log, bits = sat_callcc(formula)
    for line in log:
        print(line)
    print(format_assignment(bits))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.file} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {args.file} nests JSON arrays or objects too deeply", file=sys.stderr)
        return 2
    try:
        game = parse_game(doc)
    except GameFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(game, SequentialGameSpec):
        play, outcome = backward_induction(game)
        print("play:", " ".join(play) if play else "(empty)")
        print("outcome:", " ".join(str(u) for u in outcome))
        return 0
    eff = nondet_effect()
    row_moves, col_moves = game.moves
    eps = nondet_argmax_selection(row_moves, key=lambda u: u[0])
    delta = nondet_argmax_selection(col_moves, key=lambda u: u[1])
    combined = sum_selections(eps, delta, row_moves, col_moves)
    chosen = run_selection(combined, lambda pair: eff.unit(game.payoff(*pair)))
    if not chosen.alternatives:
        print("no pure equilibrium")
        return 0
    for x, y in chosen.alternatives:
        outcome = game.payoff(x, y)
        print(f"equilibrium: {x} {y} -> {' '.join(str(u) for u in outcome)}")
    return 0


def _cmd_laws(args: argparse.Namespace) -> int:
    if args.samples < 0:
        print("error: --samples must be at least 0", file=sys.stderr)
        return 2
    reports = run_all(seed=args.seed, samples=args.samples)
    failed = 0
    for report in reports:
        if report.passed:
            print(f"PASS {report.name} ({report.cases} cases)")
        else:
            failed += 1
            print(f"FAIL {report.name} ({report.failures}/{report.cases} failed)")
    total = sum(r.cases for r in reports)
    print(f"{len(reports) - failed}/{len(reports)} suites passed, {total} cases total")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selcc",
        description="Selection-monad demos, SAT search, and game solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo-callcc", help="run a call/cc dialogue demo")
    demo.add_argument("--which", choices=("foo", "bar"), required=True)
    demo.add_argument(
        "--outer",
        choices=("unit", "double"),
        default="unit",
        help="outer continuation: unit (default) or double the result",
    )
    demo.set_defaults(handler=_cmd_demo_callcc)

    sat = sub.add_parser(
        "demo-sat",
        help="run the instrumented SAT search",
        epilog=(
            "Dummy continuation calls print the all-False assignment "
            "(e.g. [False,False,False]) rather than an empty list: under strict "
            "evaluation the dummy must be a complete assignment the formula can "
            "evaluate."
        ),
    )
    sat.add_argument("--vars", type=int, required=True, help="number of variables")
    sat.add_argument(
        "--formula",
        required=True,
        help="formula over 0-based variable indices, e.g. '0&!1&2'",
    )
    sat.set_defaults(handler=_cmd_demo_sat)

    solve = sub.add_parser("solve", help="solve a JSON game file")
    solve.add_argument("file", help="path to the game document")
    solve.set_defaults(handler=_cmd_solve)

    laws = sub.add_parser("laws", help="run every law suite")
    laws.add_argument("--seed", type=int, default=0)
    laws.add_argument("--samples", type=int, default=1000)
    laws.set_defaults(handler=_cmd_laws)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return args.handler(args)

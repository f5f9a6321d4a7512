"""Command-line front-end.

Subcommands:

* ``demo-callcc --which foo|bar`` — run a dialogue demo and print its trace
  log one line per entry, then the numeric result on its own line;
* ``demo-sat --vars N --formula S`` — run the instrumented SAT search and
  print its trace, then the final assignment (at most
  :data:`MAX_DEMO_SAT_VARS` variables, and "(" and "!" nested at most
  :data:`MAX_FORMULA_DEPTH` deep; a flat "&" or "|" chain may be any length);
* ``solve FILE`` — solve a JSON game file (sequential games by backward
  induction, simultaneous games by the sum of argmax players);
* ``laws [--seed N] [--samples K]`` — run every law suite and report
  pass/fail counts (at most :data:`MAX_LAW_SAMPLES` samples).

Each command loads only the submodules it runs: ``demo-sat`` the search,
``solve`` the games, ``demo-callcc`` the dialogues and ``laws`` the law
suites.

Exit codes: 0 success, 1 law failures, 2 usage/validation errors.
"""
from __future__ import annotations

import argparse
import ast
import functools
import itertools
import json
import math
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from .games import SequentialGameSpec, SimultaneousGameSpec
    from .search import BooleanFormula


class _UsageError(ValueError):
    """A refused input: :func:`main` prints ``error: <message>`` on stderr
    and exits 2."""


class FormulaParseError(_UsageError):
    """Raised when a formula string cannot be parsed; names the position."""


class GameFileError(_UsageError):
    """Raised when a game document fails validation."""


# The deepest sequential game ``solve`` accepts.  Backward induction nests
# three Python frames per stage at the payoff call (``sel_sequence``'s stage
# runner, the argmax player's chooser and its scoring continuation), so
# 100 stages stay inside the default recursion limit of 1000.  How many
# more fit depends on the caller's stack; Tier-1 solves 200 stages, so a
# change that adds frames per stage fails a test before it reaches this
# limit.
MAX_SEQUENTIAL_STAGES = 100

# The most variables ``demo-sat`` accepts, the same arity limit as
# ``sat_oracle``.  The search's trace log has 5 * 2**n - 4 lines on every
# formula (Tier-1 pins the count), so time and memory double per variable:
# ``--vars 20`` prints a log of 5,242,876 lines.  The peak memory is set
# inside the search, by the last trace bind holding both halves of the log
# and their concatenation.
MAX_DEMO_SAT_VARS = 20

# How deep ``parse_formula`` lets "(" and "!" nest.  Evaluation runs one
# compiled function and the parser reads in one loop, so only CPython's
# compiler recurses, once per nested node.  A flat "&" or "|" chain of any
# length is one n-ary node, which the compiler loops over, so the tree nests
# at most two ``BoolOp`` nodes per "(" and one ``UnaryOp`` per "!".  With the
# limit lifted, ``main`` at --vars 2 compiles "0|0&(" nested 494 deep and
# fails at 495 on Python 3.10 and 3.11 (746/747 on 3.12, 4,996/4,997 on
# 3.13).  On 3.10 and 3.11 the compiler's budget shrinks with the caller's
# stack: called 500 frames deep, 200 levels still compile and 400 do not.
MAX_FORMULA_DEPTH = 200

# The most cases ``laws`` draws per seeded sweep (``--samples``).  The twelve
# randomized monad sweeps and the randomized backward-induction sweep each
# run this many, so a pass takes time linear in it and the limit bounds it
# (CHANGES.md has the timings).
MAX_LAW_SAMPLES = 100_000


# ---------------------------------------------------------------------------
# Boolean formula mini-parser.
#
# Grammar (precedence low to high, both operators left-associative):
#   or   := and ("|" and)*
#   and  := not ("&" not)*
#   not  := "!" not | atom
#   atom := decimal-index | "(" or ")"
# ---------------------------------------------------------------------------

# Every node gets a source location, so the tree needs no
# ``ast.fix_missing_locations`` walk before it compiles.
_AT = {"lineno": 1, "col_offset": 0}
_AND, _OR, _NOT = ast.And(), ast.Or(), ast.Not()
# Deletes every character that may form a token; whitespace is the rest.
_DROP_TOKENS = str.maketrans("", "", "0123456789!&|()")


def _chain(op: ast.boolop, terms: list[ast.expr]) -> ast.expr:
    """One n-ary ``op`` node over a flat chain's ``terms``; a lone term as it is."""
    return ast.BoolOp(op, terms, **_AT) if len(terms) > 1 else terms[0]


def _compile(test: ast.expr, arity: int) -> Callable[[Sequence[bool]], bool]:
    """Compile ``test``, an expression over the names ``x0``, ``x1``, ...,
    into one function of an assignment ``b`` of ``arity`` values:
    ``def formula(b): x0, x1, ... = b; return True if <test> else False``.

    The conditional expression puts the whole ``and``/``or``/``not`` test in
    test context, where CPython compiles it to conditional jumps on the
    locals: no ``not`` is computed, no name is looked up and no builtin is
    called, and every evaluation still returns exactly ``True`` or ``False``.

    Unpacking ``b`` into one local name per variable keeps the compiled
    expression at one node per variable occurrence, where ``b[i]`` takes three;
    CPython's compiler costs about the same per node, so this form compiles in
    about 40% less time and evaluates as fast.  The function is built as an
    ``ast``, not as source text, so the tokenizer's limit of 200 nested
    brackets never applies; ``test`` holds only validated variables and three
    operators, so no user text reaches the compiler.
    """
    load, store = ast.Load(), ast.Store()
    targets = [ast.Name(f"x{i}", store, **_AT) for i in range(arity)]
    unpack = ast.Assign([ast.Tuple(targets, store, **_AT)], ast.Name("b", load, **_AT), **_AT)
    result = ast.IfExp(test, ast.Constant(True, **_AT), ast.Constant(False, **_AT), **_AT)
    params = ast.arguments(
        posonlyargs=[], args=[ast.arg("b", **_AT)], kwonlyargs=[], kw_defaults=[], defaults=[]
    )
    # ``type_params`` is a required field from Python 3.12 on; older versions
    # keep it as a plain attribute.
    formula = ast.FunctionDef(
        "formula", params, [unpack, ast.Return(result, **_AT)], [], type_params=[], **_AT
    )
    namespace = {"__builtins__": {}}
    exec(compile(ast.Module([formula], []), "<formula>", "exec"), namespace)
    return namespace["formula"]


def parse_formula(src: str, arity: int) -> BooleanFormula:
    """Parse ``src`` into a total formula over ``arity`` variables.

    Variables are decimal indices in ASCII digits; ``!`` binds tighter than
    ``&``, which binds tighter than ``|``; parentheses group.  Out-of-range
    indices, syntax errors and "(" or "!" nested deeper than
    :data:`MAX_FORMULA_DEPTH` levels raise :class:`FormulaParseError` naming
    the offending position.  A flat ``&`` or ``|`` chain may have any number
    of terms.

    After one check that every character belongs to a token or is
    whitespace, one loop over the characters of ``src`` builds the formula
    as a Python ``ast`` expression, without recursion: a stack holds the
    open "(" groups, each variable is one shared ``Name``, ``!`` of a
    variable one shared ``UnaryOp``, and each flat chain of one operator one
    n-ary ``BoolOp``.  :func:`_compile` wraps that expression into one Python
    function that returns ``True if <test> else False``, so an evaluation is
    one call that runs conditional jumps and returns exactly ``True`` or
    ``False``.  That function takes an assignment of exactly ``arity`` values.
    """
    from .search import BooleanFormula

    if (rest := src.translate(_DROP_TOKENS)) and not rest.isspace():
        at = next(i for i, ch in enumerate(src) if ch in rest and not ch.isspace())
        raise FormulaParseError(f"unexpected character {src[at]!r} at position {at}")
    load = ast.Load()
    # Keyed by an index's digits without leading zeros: any other text,
    # however long, is out of range.
    variables = {str(i): ast.Name(f"x{i}", load, **_AT) for i in range(arity)}
    negations = {variable: ast.UnaryOp(_NOT, variable, **_AT) for variable in variables.values()}

    # Each open "(" keeps the enclosing group's "|" terms, its current "&"
    # terms and the "!"s pending on the "(" itself.  ``level`` counts the open
    # "(" and the pending "!" (see ``MAX_FORMULA_DEPTH``); a flat chain of any
    # length adds none.
    groups: list[tuple[list[ast.expr], list[ast.expr], int]] = []
    ors: list[ast.expr] = []
    ands: list[ast.expr] = []
    nots = level = 0

    def misplaced(kind: str, at: int) -> FormulaParseError:
        # Where an operator should come, an open group expects its ")".
        if groups:
            return FormulaParseError(f"expected ')' at position {at}")
        return FormulaParseError(f"unexpected token {kind!r} at position {at}")

    operand = True  # an operand comes next, else an operator or the end
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        at = i
        i += 1
        if ch in "0123456789":
            while i < n and src[i] in "0123456789":
                i += 1
            if not operand:
                raise misplaced("index", at)
            text = src[at:i].lstrip("0") or "0"
            if (node := variables.get(text)) is None:
                raise FormulaParseError(
                    f"variable index {text} out of range for arity {arity} at position {at}"
                )
        elif ch == ")" and not operand and groups:
            ors.append(_chain(_AND, ands))
            node = _chain(_OR, ors)
            ors, ands, nots = groups.pop()
            level -= 1
        else:
            if ch in "&|)":
                if operand or ch == ")":
                    raise FormulaParseError(f"unexpected token {ch!r} at position {at}")
                if ch == "|":
                    ors.append(_chain(_AND, ands))
                    ands = []
                operand = True
            elif ch in "!(":
                if not operand:
                    raise misplaced(ch, at)
                if level >= MAX_FORMULA_DEPTH:
                    raise FormulaParseError(
                        f"formula nests deeper than {MAX_FORMULA_DEPTH} levels at position {at}"
                    )
                level += 1
                if ch == "!":
                    nots += 1
                else:
                    groups.append((ors, ands, nots))
                    ors, ands, nots = [], [], 0
            continue
        # An operand ends here: apply its pending "!"s, innermost first.
        level -= nots
        while nots:
            node = negations.get(node) or ast.UnaryOp(_NOT, node, **_AT)
            nots -= 1
        ands.append(node)
        operand = False
    if operand or groups:
        raise FormulaParseError(f"unexpected end of input at position {n}")
    ors.append(_chain(_AND, ands))
    test = _chain(_OR, ors)
    return BooleanFormula(arity, _compile(test, arity))


# ---------------------------------------------------------------------------
# Game files.
# ---------------------------------------------------------------------------


def _payoff_fault(payoffs: dict, plays: Iterable[tuple[str, ...]], n_players: int) -> None:
    """Raise for the first play, in order, whose key an earlier play already
    has or whose payoff is missing or malformed, else for the first key that
    names no play."""
    keys: dict[str, tuple[str, ...]] = {}
    for play in plays:
        key = ",".join(play)
        if key in keys:
            raise GameFileError(
                f"plays {keys[key]!r} and {play!r} share the payoff key {key!r}"
            )
        keys[key] = play
        if key not in payoffs:
            raise GameFileError(f"missing payoff for play {key!r}")
        raw = payoffs[key]
        if not isinstance(raw, list) or not all(
            isinstance(u, int) and not isinstance(u, bool) for u in raw
        ):
            raise GameFileError(f"payoff for {key!r} must be an array of integers")
        if len(raw) != n_players:
            raise GameFileError(
                f"payoff for {key!r} has {len(raw)} entries, expected {n_players}"
            )
    for key in payoffs:
        if key not in keys:
            raise GameFileError(f"payoff key {key!r} does not match any play")


def _parse_payoff_table(
    payoffs: Any, move_lists: Sequence[Sequence[str]], n_players: int
) -> dict[tuple[str, ...], tuple[int, ...]]:
    """A dict from each play, a tuple with one move from each of
    ``move_lists`` in :func:`itertools.product` order, to the utility tuple
    that ``payoffs`` holds under the play's comma-joined key; a
    :class:`GameFileError` naming the first fault, as :func:`_payoff_fault`
    finds it, if the table is not total, exact and one-to-one.

    Where every utility is an exact ``int``, as in every table read from
    JSON, equal vectors are one value, and all plays that have one share a
    single tuple.  An ``int`` subclass such as an ``IntEnum`` equals a plain
    ``int`` but is not the same value, so a table that holds one gives each
    play a tuple of its own entry's elements.
    """
    if not isinstance(payoffs, dict):
        raise GameFileError('"payoffs" must be an object')
    if math.prod(map(len, move_lists)) > len(payoffs):
        # Some play has no entry, or shares its key with another: name the
        # fault within len(payoffs) + 1 plays, not after listing them all.
        _payoff_fault(payoffs, itertools.product(*move_lists), n_players)
    plays = list(itertools.product(*move_lists))
    keys = list(map(",".join, plays))
    # A missing key reads as None, which fails the first test.  Every key
    # present and as many entries as distinct keys means no extra key, and
    # as many distinct keys as plays means no two plays share one.
    raws = list(map(payoffs.get, keys))
    if not (
        set(map(type, raws)) <= {list}
        and set(map(len, raws)) <= {n_players}
        and set(map(type, itertools.chain.from_iterable(raws))) <= {int}
        and len(payoffs) == len(set(keys)) == len(keys)
    ):
        # Finds no fault only in subclasses of int or list (never from JSON).
        _payoff_fault(payoffs, plays, n_players)
        return dict(zip(plays, map(tuple, raws)))
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    return dict(zip(plays, (shared.setdefault(v, v) for v in map(tuple, raws))))


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

    Move names may contain commas, but no two plays may join to the same
    key, as ``("a,b", "c")`` and ``("a", "b,c")`` do.

    Checking the payoffs takes time linear in the number of plays.  The error
    names the first fault in play order: a play whose key an earlier play
    has, or a missing or malformed payoff, then a key that matches no play.
    A document with more plays than payoff entries fails before its plays
    are listed.

    A sequential game's payoff is the look-up of a dict keyed by play.  A
    simultaneous game's payoff reads one dict per row move, keyed by column
    move, so no ``(row, col)`` tuple is kept or built per look-up.  Either
    way the payoff at every play equals the document's vector, and where
    every utility is an exact ``int``, as in any document read from JSON, it
    returns one tuple object per distinct vector.
    """
    from .games import (
        SequentialGameSpec,
        SimultaneousGameSpec,
        Stage,
        _repeated_index,
        _validate_sequential,
    )

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
        table = _parse_payoff_table(
            doc.get("payoffs"), [s.moves for s in stages], len(players)
        )
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
        table = _parse_payoff_table(doc.get("payoffs"), (row_moves, col_moves), 2)
        rows: dict[str, dict[str, tuple[int, ...]]] = {x: {} for x in row_moves}
        for (x, y), utilities in table.items():
            rows[x][y] = utilities
        return SimultaneousGameSpec(
            (players[0], players[1]),
            (row_moves, col_moves),
            lambda x, y: rows[x][y],
        )
    raise GameFileError('"type" must be "sequential" or "simultaneous"')


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_demo_callcc(args: argparse.Namespace) -> int:
    from .callcc import demo_bar, demo_foo

    demo = demo_foo if args.which == "foo" else demo_bar
    log, result = demo((lambda n: n * 2) if args.outer == "double" else None)
    for line in log:
        print(line)
    print(result)
    return 0


def _check_bound(option: str, value: int, low: int, high: int) -> None:
    """Refuse ``value`` for ``option`` unless ``low <= value <= high``."""
    if value < low:
        raise _UsageError(f"{option} must be at least {low}")
    if value > high:
        raise _UsageError(f"{option} is {value}; the limit is {high}")


def _read_json(path: str) -> Any:
    """The JSON document in the UTF-8 file at ``path``; a :class:`_UsageError`
    naming ``path`` if it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _UsageError(f"{path} nests JSON arrays or objects too deeply") from exc
    # After its two subclasses above: ``ValueError`` is also what ``int``
    # raises for a JSON integer of more than 4,300 digits.
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _cmd_demo_sat(args: argparse.Namespace) -> int:
    _check_bound("--vars", args.vars, 1, MAX_DEMO_SAT_VARS)
    from .search import _sat_callcc_outcome, format_assignment

    outcome = _sat_callcc_outcome(parse_formula(args.formula, args.vars))
    # One call writes the trace's own log a line at a time, without copying it.
    sys.stdout.writelines(itertools.chain.from_iterable(zip(outcome.log, itertools.repeat("\n"))))
    print(format_assignment(outcome.value))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .games import SequentialGameSpec, backward_induction, simultaneous_equilibria

    game = parse_game(_read_json(args.file))
    if isinstance(game, SequentialGameSpec):
        play, outcome = backward_induction(game)
        print("play:", " ".join(play) if play else "(empty)")
        print("outcome:", " ".join(str(u) for u in outcome))
        return 0
    equilibria = simultaneous_equilibria(game)
    if not equilibria:
        print("no pure equilibrium")
        return 0
    for x, y in equilibria:
        outcome = game.payoff(x, y)
        print(f"equilibrium: {x} {y} -> {' '.join(str(u) for u in outcome)}")
    return 0


def _cmd_laws(args: argparse.Namespace) -> int:
    _check_bound("--samples", args.samples, 0, MAX_LAW_SAMPLES)
    from .laws import run_all  # only this command loads the law suites

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


# Built on the first ``main`` call and kept for the process, not at import,
# where every ``import selcc`` would pay for it.
@functools.cache
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
    """Entry point; returns the process exit code.

    Every input a command refuses raises a ``_UsageError`` (a formula or game
    file error among them), reported here as one ``error:`` line on stderr
    with exit code 2.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

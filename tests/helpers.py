"""Helpers shared by several test modules; pytest collects no tests here."""
from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from selcc import BooleanFormula, SelectionComputation, sel_bind, sel_map, sel_unit
from selcc.cli import _AND, _AT, _NOT, _OR, MAX_FORMULA_DEPTH, FormulaParseError, _compile

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so a child Python process imports the same ``selcc``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return env


def modules_loaded_by(code: str) -> list[str]:
    """The ``selcc`` submodules, and ``random`` if it is among them, that a
    fresh interpreter loads while it runs ``code``, sorted.  The child runs
    without ``site``, which on some installs imports ``random`` at start-up."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.startswith('selcc.') or m == 'random'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def source_mutant(function, *edits: tuple[str, str]):
    """``function`` with each ``(old, new)`` edit made to its source, compiled
    in a copy of its module's namespace."""
    module = sys.modules[function.__module__]
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert old in source
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


def leaves_out_calls(observed, reference) -> bool:
    """Whether an observed product run, ``(answer, continuation calls,
    chooser runs)``, has the answer and chooser runs of ``reference`` and
    its calls with some left out, in order."""
    (answer, calls, runs), (ref_answer, ref_calls, ref_runs) = observed, reference
    rest = iter(ref_calls)
    in_order = all(any(call == other for other in rest) for call in calls)
    return answer == ref_answer and runs == ref_runs and in_order


def paper_sel_bind(eps, f):
    """The paper's selection bind as written, a reference for ``sel_bind``:
    ``eps`` scores ``x`` by binding ``f(x)``'s choice under ``k`` into
    ``k``, and the chosen ``x`` runs through ``f`` a second time, with no
    memo."""
    bind = eps.effect.bind

    def chooser(k):
        return bind(eps.chooser(lambda x: bind(f(x).chooser(k), k)), lambda x: f(x).chooser(k))

    return SelectionComputation(chooser, eps.effect)


def fold_sequence(comps, bind=sel_bind):
    """The iterated product as the right fold of binary products, a
    reference for ``sel_sequence``: each step binds its head with ``bind``
    (``sel_bind``'s memo, or :func:`paper_sel_bind`) and maps the rest of
    the product onto it.  No computations fold to the unit at ``()`` over
    identity, as in ``sel_sequence``."""
    result = sel_unit((), comps[0].effect if comps else None)
    for comp in reversed(comps):
        result = bind(comp, lambda x, rest=result: sel_map(rest, lambda xs: (x,) + xs))
    return result


def unshared_callcc_term(monad, handler, eff):
    """The paper's term as written, ``λk1. handler(λx. λk2. k1(x))(k1)``:
    every run of a reified computation runs ``k1(x)`` again."""

    def run(k1):
        def reified(x):
            return monad.computation(lambda k2: k1(x), eff)

        return monad.run(handler(reified), k1)

    return monad.computation(run, eff)


_BOOL_OPS = {"&": _AND, "|": _OR}


def _lex(src: str) -> list[tuple[str, str, int]]:
    """``src`` as (kind, text, position) tokens, closed by an "end" token.

    Only the ASCII digits ``0``-``9`` form an index (``str.isdigit`` also
    accepts "²" and "٢").  An index's text drops its leading zeros and stays
    text, since ``int`` refuses runs of more than 4,300 digits.
    """
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    n = len(src)
    i = 0
    while i < n:
        ch = src[i]
        if ch in "!&|()":
            append((ch, ch, i))
            i += 1
        elif ch in "0123456789":
            start = i
            i += 1
            while i < n and src[i] in "0123456789":
                i += 1
            append(("index", src[start:i].lstrip("0") or "0", start))
        elif ch.isspace():
            i += 1
        else:
            raise FormulaParseError(f"unexpected character {ch!r} at position {i}")
    append(("end", "", n))
    return tokens


def reference_parse_formula(src: str, arity: int) -> BooleanFormula:
    """The two-pass parser ``parse_formula`` replaced, a reference for it: a
    lexer builds a token list, then recursive descent over the grammar

        or   := and ("|" and)*
        and  := not ("&" not)*
        not  := "!" not | atom
        atom := decimal-index | "(" or ")"

    builds the same ``ast`` expression, which :func:`selcc.cli._compile`
    compiles, and raises the same :class:`FormulaParseError` messages.  It
    recurses through four frames per parenthesis and one per "!"."""
    tokens = _lex(src)
    pos = 0
    # An index with more digits than ``arity`` is out of range, however long.
    arity_digits = len(str(arity))
    load = ast.Load()
    variables = [ast.Name(f"x{i}", load, **_AT) for i in range(arity)]
    negations = {variable: ast.UnaryOp(_NOT, variable, **_AT) for variable in variables}

    def take() -> tuple[str, str, int]:
        nonlocal pos
        token = tokens[pos]
        if token[0] == "end":
            raise FormulaParseError(f"unexpected end of input at position {len(src)}")
        pos += 1
        return token

    def too_deep(at: int) -> FormulaParseError:
        return FormulaParseError(
            f"formula nests deeper than {MAX_FORMULA_DEPTH} levels at position {at}"
        )

    # ``level`` counts the "(" and "!" being parsed.  ``parse_chain(level,
    # ops)`` parses a chain of ``ops[0]`` over chains of the tighter
    # ``ops[1:]``, and over ``parse_not`` once no operator is left.
    def parse_chain(level: int, ops: str = "|&") -> ast.expr:
        nonlocal pos
        op, tighter = ops[0], ops[1:]
        terms = [parse_chain(level, tighter) if tighter else parse_not(level)]
        while tokens[pos][0] == op:
            pos += 1
            terms.append(parse_chain(level, tighter) if tighter else parse_not(level))
        return ast.BoolOp(_BOOL_OPS[op], terms, **_AT) if len(terms) > 1 else terms[0]

    def parse_not(level: int) -> ast.expr:
        nonlocal pos
        if (token := tokens[pos])[0] == "!":
            pos += 1
            if level >= MAX_FORMULA_DEPTH:
                raise too_deep(token[2])
            inner = parse_not(level + 1)
            return negations.get(inner) or ast.UnaryOp(_NOT, inner, **_AT)
        return parse_atom(level)

    def parse_atom(level: int) -> ast.expr:
        kind, text, at = take()
        if kind == "index":
            if len(text) > arity_digits or int(text) >= arity:
                raise FormulaParseError(
                    f"variable index {text} out of range for arity {arity} at position {at}"
                )
            return variables[int(text)]
        if kind == "(":
            if level >= MAX_FORMULA_DEPTH:
                raise too_deep(at)
            node = parse_chain(level + 1)
            closing = take()
            if closing[0] != ")":
                raise FormulaParseError(f"expected ')' at position {closing[2]}")
            return node
        raise FormulaParseError(f"unexpected token {kind!r} at position {at}")

    test = parse_chain(0)
    if (token := tokens[pos])[0] != "end":
        raise FormulaParseError(f"unexpected token {token[0]!r} at position {token[2]}")

    return BooleanFormula(arity, _compile(test, arity))

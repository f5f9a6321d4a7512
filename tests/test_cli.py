"""Tests for the formula parser, game-file validation, and the CLI commands."""
from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import itertools
import json
import marshal
import random
import re
import subprocess
import sys
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selcc import (
    FormulaParseError,
    GameFileError,
    LawReport,
    SequentialGameSpec,
    SimultaneousGameSpec,
    Stage,
    backward_induction,
    backward_induction_oracle,
    format_assignment,
    main,
    nash_oracle,
    parse_formula,
    parse_game,
    sat_callcc,
    sat_oracle,
    sat_product,
    simultaneous_equilibria,
)
from selcc import cli
from selcc.cli import (
    MAX_DEMO_SAT_VARS,
    MAX_FORMULA_DEPTH,
    MAX_LAW_SAMPLES,
    MAX_SEQUENTIAL_STAGES,
)

from helpers import child_env, reference_parse_formula, source_mutant

_SEQ_DOC = {
    "type": "sequential",
    "players": ["P1", "P2"],
    "stages": [
        {"controller": 0, "moves": ["L", "R"]},
        {"controller": 1, "moves": ["l", "r"]},
    ],
    "payoffs": {
        "L,l": [2, 1],
        "L,r": [0, 0],
        "R,l": [1, 2],
        "R,r": [3, 0],
    },
}

_SIM_DOC = {
    "type": "simultaneous",
    "players": ["Row", "Col"],
    "moves": [["A", "B"], ["A", "B"]],
    "payoffs": {
        "A,A": [1, 1],
        "A,B": [0, 0],
        "B,A": [0, 0],
        "B,B": [1, 1],
    },
}


def _single_move_doc(n_stages: int) -> dict:
    """A sequential game with one move per stage: one play, any depth."""
    return {
        "type": "sequential",
        "players": ["P"],
        "stages": [{"controller": 0, "moves": ["x"]}] * n_stages,
        "payoffs": {",".join(["x"] * n_stages): [7]},
    }


def _comma_doc(kind: str, second_moves: list[str], payoffs: dict) -> dict:
    moves = [["a,b", "a"], second_moves]
    doc = {"type": kind, "players": ["P1", "P2"]}
    if kind == "sequential":
        doc["stages"] = [{"controller": i, "moves": m} for i, m in enumerate(moves)]
    else:
        doc["moves"] = moves
    doc["payoffs"] = payoffs
    return doc


def _comma_collision_doc(kind: str) -> dict:
    # ("a,b", "c") and ("a", "b,c") both join to "a,b,c": four plays, three keys.
    return _comma_doc(kind, ["c", "b,c"], {"a,b,c": [1, 1], "a,b,b,c": [2, 2], "a,c": [3, 3]})


# Simultaneous shapes: one row, one column, unequal sides, and a square game
# whose players share move names, where a transposed table reads wrong cells.
_SIM_SHAPES = ("1xk", "kx1", "mxn", "mxm")


def _valid_game_docs(seed: int = 29, count: int = 240) -> list[tuple[dict, list[tuple[str, ...]]]]:
    """Seeded valid documents, each with its plays in product order:
    sequential games of 1-4 stages and simultaneous games of every shape in
    ``_SIM_SHAPES``, by turns.  Utilities are drawn from a few vectors, so
    most documents repeat vectors and tie; some simultaneous games have move
    names that contain commas."""
    rng = random.Random(seed)
    docs = []
    for index in range(count):
        if index % 2 == 0:
            n_players = rng.randint(1, 3)
            move_lists = [
                [f"m{j}" for j in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 4))
            ]
            doc = {
                "type": "sequential",
                "players": [f"P{i}" for i in range(n_players)],
                "stages": [
                    {"controller": rng.randrange(n_players), "moves": moves}
                    for moves in move_lists
                ],
            }
        else:
            n_players = 2
            shape = _SIM_SHAPES[index // 2 % len(_SIM_SHAPES)]
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            m, n = {"1xk": (1, n), "kx1": (m, 1), "mxn": (m, m + n - 1), "mxm": (m, m)}[shape]
            if shape == "mxm":
                move_lists = [[f"s{i}" for i in range(m)]] * 2
            elif rng.random() < 0.5:
                # Every row move ends in ",x" and every column move starts
                # with "y,", so each key splits one way only.
                move_lists = [[f"r{i},x" for i in range(m)], [f"y,c{j}" for j in range(n)]]
            else:
                move_lists = [[f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]]
            doc = {"type": "simultaneous", "players": ["Row", "Col"], "moves": move_lists}
        vectors = [
            [rng.randint(-2, 2) for _ in range(n_players)] for _ in range(rng.randint(1, 4))
        ]
        plays = list(itertools.product(*move_lists))
        doc["payoffs"] = {",".join(play): list(rng.choice(vectors)) for play in plays}
        docs.append((doc, plays))
    return docs


def _assert_every_cell_round_trips(parse) -> None:
    """``parse`` reads back the document's vector at every play of every
    seeded valid document, and its games solve like the oracles."""
    for doc, plays in _valid_game_docs():
        game = parse(doc)
        expected = {play: tuple(doc["payoffs"][",".join(play)]) for play in plays}
        if doc["type"] == "sequential":
            assert {play: game.payoff(play) for play in plays} == expected, doc
            assert backward_induction(game) == backward_induction_oracle(game), doc
        else:
            assert {play: game.payoff(*play) for play in plays} == expected, doc
            assert simultaneous_equilibria(game) == nash_oracle(game), doc


def _truth_table(formula, arity: int) -> tuple[bool, ...]:
    return tuple(
        formula.evaluate(bits)
        for bits in itertools.product((False, True), repeat=arity)
    )


class TestParseFormula:
    def test_conjunction_with_negation(self):
        formula = parse_formula("0&!1&2", 3)
        assert formula.evaluate((True, False, True)) is True
        assert _truth_table(formula, 3) == tuple(
            b[0] and not b[1] and b[2]
            for b in itertools.product((False, True), repeat=3)
        )

    def test_single_variable(self):
        formula = parse_formula("0", 1)
        assert _truth_table(formula, 1) == (False, True)

    def test_negated_disjunction(self):
        formula = parse_formula("!(0|1)", 2)
        assert _truth_table(formula, 2) == (True, False, False, False)

    def test_and_binds_tighter_than_or(self):
        formula = parse_formula("0|1&0", 2)
        assert _truth_table(formula, 2) == _truth_table(parse_formula("0", 2), 2)

    def test_not_binds_tighter_than_and(self):
        formula = parse_formula("!0&1", 2)
        assert _truth_table(formula, 2) == (False, True, False, False)

    def test_double_negation(self):
        assert _truth_table(parse_formula("!!0", 1), 1) == (False, True)

    def test_whitespace_is_ignored(self):
        formula = parse_formula(" 0 & 1 ", 2)
        assert _truth_table(formula, 2) == (False, False, False, True)

    def test_multi_digit_indices(self):
        formula = parse_formula("10", 11)
        assert formula.evaluate((False,) * 10 + (True,)) is True

    def test_agrees_with_reference_semantics_on_a_grammar_sample(self):
        atoms = [("0", lambda b: b[0]), ("1", lambda b: b[1])]
        level = atoms
        sample = list(atoms)
        for _ in range(3):
            nxt = []
            for text, fn in level:
                nxt.append((f"!({text})", lambda b, f=fn: not f(b)))
            for (lt, lf), (rt, rf) in itertools.islice(
                itertools.product(level, level), 40
            ):
                nxt.append((f"({lt})&({rt})", lambda b, l=lf, r=rf: l(b) and r(b)))
                nxt.append((f"({lt})|({rt})", lambda b, l=lf, r=rf: l(b) or r(b)))
            level = nxt[:60]
            sample.extend(level)
        for text, fn in sample:
            parsed = parse_formula(text, 2)
            for bits in itertools.product((False, True), repeat=2):
                assert parsed.evaluate(bits) == fn(bits), text

    @given(
        st.recursive(
            st.sampled_from([("0", 0), ("1", 1)]).map(
                lambda a: (a[0], lambda b, i=a[1]: b[i])
            ),
            lambda children: st.one_of(
                children.map(lambda c: (f"!({c[0]})", lambda b, f=c[1]: not f(b))),
                st.tuples(children, children).map(
                    lambda p: (
                        f"({p[0][0]})&({p[1][0]})",
                        lambda b, l=p[0][1], r=p[1][1]: l(b) and r(b),
                    )
                ),
                st.tuples(children, children).map(
                    lambda p: (
                        f"({p[0][0]})|({p[1][0]})",
                        lambda b, l=p[0][1], r=p[1][1]: l(b) or r(b),
                    )
                ),
            ),
            max_leaves=8,
        )
    )
    def test_agrees_with_reference_semantics_on_random_expressions(self, expr):
        text, fn = expr
        parsed = parse_formula(text, 2)
        for bits in itertools.product((False, True), repeat=2):
            assert parsed.evaluate(bits) == fn(bits)

    @pytest.mark.parametrize(
        "src, arity, position",
        [
            ("0&", 2, 2),
            ("2", 2, 0),
            (")", 1, 0),
            ("0)1", 2, 1),
            ("0 $ 1", 2, 2),
            ("(0", 1, 2),
            ("", 1, 0),
        ],
    )
    def test_errors_name_the_position(self, src, arity, position):
        with pytest.raises(FormulaParseError) as excinfo:
            parse_formula(src, arity)
        assert f"position {position}" in str(excinfo.value)


def _random_cnf(rng: random.Random, n: int, m: int | None = None) -> list[tuple[int, ...]]:
    """A 3-CNF of ``m`` clauses, by default at clause/variable ratio 4.26;
    literal ``v + 1`` or ``-(v + 1)``."""
    return [
        tuple(v + 1 if rng.random() < 0.5 else -(v + 1) for v in rng.sample(range(n), 3))
        for _ in range(round(4.26 * n) if m is None else m)
    ]


def _cnf_text(clauses: list[tuple[int, ...]]) -> str:
    return "&".join(
        "(" + "|".join(str(l - 1) if l > 0 else f"!{-l - 1}" for l in clause) + ")"
        for clause in clauses
    )


def _cnf_holds(clauses: list[tuple[int, ...]], bits: tuple[bool, ...]) -> bool:
    return all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses)


def _planted_cnf(
    rng: random.Random, n: int, m: int, witness: tuple[bool, ...]
) -> list[tuple[int, ...]]:
    """:func:`_random_cnf`'s clauses, each that ``witness`` falsifies with its
    first literal negated, so ``witness`` satisfies them all."""
    return [
        clause if _cnf_holds([clause], witness) else (-clause[0],) + clause[1:]
        for clause in _random_cnf(rng, n, m)
    ]


def _python_reference(text: str):
    """The formula as a Python lambda: ``!``, ``&``, ``|`` rank as ``not``,
    ``and``, ``or`` do, so Python's own operators give the reference answer."""
    body = re.sub(r"\d+", lambda m: f"b[{m.group()}]", text)
    body = body.replace("!", " not ").replace("&", " and ").replace("|", " or ")
    return eval(f"lambda b: bool({body})")


_MIXED_CHAINS = [
    "0|1&!2|3&4",
    "(0|1)|2",
    "!(0&1)&2",
    "(0|1)&2",
    "(0&1)|2&3",
    "0&(1|2)&3|4",
    "!0|!1&!!2",
    "(0|1)&(2|3)&!4",
    "0|(1|2&3)|4",
    "0&1&2|3|4&0",
]


def _random_chain(rng: random.Random, arity: int, depth: int = 0) -> str:
    """An unparenthesised chain of mixed ``&`` and ``|``, with negated and
    parenthesised terms, over variables below ``arity``."""
    terms = []
    for _ in range(rng.randint(2, 5)):
        if depth < 2 and rng.random() < 0.25:
            term = f"({_random_chain(rng, arity, depth + 1)})"
        else:
            term = str(rng.randrange(arity))
        terms.append("!" * rng.choice((0, 0, 1, 2)) + term)
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice("&|") + term
    return text


# A compiled formula returns ``True if <test> else False``: its test compiles
# to conditional jumps, with no name to look up (``bool(...)`` has one).  Both
# references return a bool, so each ``is`` also asserts that an evaluation
# returns exactly True or False, whatever values the assignment holds.
def _assert_cnfs_agree_with_clause_evaluation(values=(False, True), parse=parse_formula) -> None:
    rng = random.Random(8)
    for n in range(8, 13):
        for _ in range(2):
            clauses = _random_cnf(rng, n)
            formula = parse(_cnf_text(clauses), n)
            assert formula.evaluate.__code__.co_names == ()
            for bits in itertools.product(values, repeat=n):
                assert formula.evaluate(bits) is _cnf_holds(clauses, bits), (n, bits)


def _assert_chains_agree_with_python(values=(False, True), parse=parse_formula) -> None:
    rng = random.Random(5)
    texts = _MIXED_CHAINS + [_random_chain(rng, 5) for _ in range(200)]
    for text in texts:
        formula, reference = parse(text, 5), _python_reference(text)
        assert formula.evaluate.__code__.co_names == ()
        for bits in itertools.product(values, repeat=5):
            assert formula.evaluate(bits) is reference(bits), (text, bits)


class TestCompiledFormula:
    def test_cnfs_agree_with_a_clause_evaluator(self):
        _assert_cnfs_agree_with_clause_evaluation()

    def test_mixed_chains_agree_with_python_operators(self):
        _assert_chains_agree_with_python()

    def test_evaluations_on_zero_one_ints_return_bools(self):
        # A bare ``return <test>`` would return the ints themselves.
        _assert_cnfs_agree_with_clause_evaluation((0, 1))
        _assert_chains_agree_with_python((0, 1))

    def test_a_broken_merge_is_caught(self, monkeypatch):
        # Appends the terms after a parenthesised group to that group,
        # whatever its operator: "(0|1)&2" becomes "0|1|2".
        folds_into_left_group = source_mutant(
            cli._chain,
            (
                "return ast.BoolOp(op, terms, **_AT) if len(terms) > 1 else terms[0]",
                "if isinstance(terms[0], ast.BoolOp):\n"
                "        terms[0].values += terms[1:]\n"
                "        return terms[0]\n"
                "    return ast.BoolOp(op, terms, **_AT) if len(terms) > 1 else terms[0]",
            ),
        )
        monkeypatch.setattr(cli, "_chain", folds_into_left_group)
        with pytest.raises(AssertionError):
            _assert_cnfs_agree_with_clause_evaluation()
        with pytest.raises(AssertionError):
            _assert_chains_agree_with_python()

    def test_a_cnf_of_426_clauses_over_100_variables_agrees_with_a_clause_evaluator(self):
        # A flat "&" chain of any length is one node, however many clauses.
        rng = random.Random(19)
        witness = tuple(rng.random() < 0.5 for _ in range(100))
        clauses = _planted_cnf(rng, 100, 426, witness)
        formula = parse_formula(_cnf_text(clauses), 100)
        flips = [witness[:i] + (not witness[i],) + witness[i + 1 :] for i in range(100)]
        draws = [tuple(rng.random() < 0.5 for _ in range(100)) for _ in range(100)]
        outcomes = set()
        for bits in [witness] + flips + draws:
            outcome = formula.evaluate(bits)
            assert outcome is _cnf_holds(clauses, bits), bits
            outcomes.add(outcome)
        assert outcomes == {False, True}

    def test_evaluation_takes_exactly_arity_values(self):
        formula = parse_formula("0|!1", 3)
        assert formula.evaluate([False, False, True]) is True
        for bits in [(True,), (True, False), (True, False, False, False)]:
            with pytest.raises(ValueError):
                formula.evaluate(bits)


def _random_formula_source(rng: random.Random, arity: int) -> str:
    """A string over ``0-9 ! & | ( )``, space and a stray ``$``: one in eight
    is random characters; the rest are mixed chains over indices up to
    ``arity``, one in ten nested or chained about 200 deep, with up to three
    random characters inserted, deleted or replaced."""
    chars = "0123456789!&|() $"
    if rng.random() < 0.125:
        return "".join(rng.choices(chars, k=rng.randint(0, 8)))
    text = _random_chain(rng, arity)
    if rng.random() < 0.1:
        d = rng.randint(197, 203)
        text = rng.choice(
            [
                "(" * d + text + ")" * d,
                "!" * d + text,
                rng.choice("&|").join(str(rng.randrange(arity)) for _ in range(d)),
            ]
        )
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
        at = rng.randint(0, len(text))
        edit = rng.randrange(3)
        text = text[:at] + (rng.choice(chars) if edit else "") + text[at + (edit != 1) :]
    return text


# 2,000 parses: each outcome is the error's message or the truth table.
_PARSE_OUTCOMES_SHA256 = "f336db56faa21309addc96d45dfbc78ba36ab8955723730edecbeefb6bae49a4"


def _parse_outcomes(parse=parse_formula) -> tuple[str, Counter]:
    """The sha256 of ``parse``'s outcome on 2,000 seeded strings at arities
    1-12, and how often each outcome kind (an error's first two words, or
    "table") came up."""
    rng = random.Random(11)
    digest, kinds = hashlib.sha256(), Counter()
    for _ in range(2000):
        arity = rng.randint(1, 12)
        src = _random_formula_source(rng, arity)
        try:
            formula = parse(src, arity)
        except FormulaParseError as exc:
            outcome = f"error: {exc}"
            kinds[" ".join(str(exc).split()[:2])] += 1
        else:
            outcome = "".join("01"[value] for value in _truth_table(formula, arity))
            kinds["table"] += 1
        digest.update(f"{arity} {src!r} {outcome}\n".encode())
    return digest.hexdigest(), kinds


class TestParseOutcomes:
    def test_every_outcome_is_pinned(self):
        digest, kinds = _parse_outcomes()
        assert digest == _PARSE_OUTCOMES_SHA256
        assert kinds.keys() == {
            "table",
            "unexpected character",
            "unexpected end",
            "unexpected token",
            "expected ')'",
            "variable index",
            "formula nests",
        }, kinds
        assert kinds["table"] > 500 and kinds.total() - kinds["table"] > 500, kinds

    @pytest.mark.parametrize(
        "edits",
        [
            # "|" extends the tighter chain, of "|" nodes, and "&" the looser.
            [
                ('if ch == "|":', 'if ch == "&":'),
                ("_chain(_AND, ands)", "_chain(_OR, ands)"),
                ("_chain(_OR, ors)", "_chain(_AND, ors)"),
            ],
            [("expected ')' at position {at}", "expected ')' at position {at + 1}")],
            # Only a "!" past the limit reads one position early.
            [("levels at position {at}", "levels at position {at - (ch == '!')}")],
        ],
        ids=["swapped precedence", "shifted parenthesis error", "shifted depth error"],
    )
    def test_a_changed_outcome_is_caught(self, edits):
        digest, _ = _parse_outcomes(source_mutant(parse_formula, *edits))
        assert digest != _PARSE_OUTCOMES_SHA256


def _formula_outcome(parse, src: str, arity: int) -> str | bytes:
    """The error message of ``parse`` on ``src``, or the marshalled code of
    the formula it compiles."""
    try:
        formula = parse(src, arity)
    except FormulaParseError as exc:
        return str(exc)
    return marshal.dumps(formula.evaluate.__code__)


class TestReferenceParser:
    """``parse_formula`` against the two-pass parser it replaced."""

    def test_valid_formulas_compile_to_the_same_code(self):
        rng = random.Random(40)
        cases = [(_cnf_text(_random_cnf(rng, n)), n) for n in range(8, 13) for _ in range(12)]
        cases.append((_cnf_text(_random_cnf(rng, 100, 426)), 100))
        cases += [(op.join(str(i % 12) for i in range(50_000)), 12) for op in "|&"]
        # The three formulas at the depth limit that CI pins.
        depth = MAX_FORMULA_DEPTH
        mixed = "".join(f"{i % 12}{'&' if i % 2 else '|'}(" for i in range(depth))
        cases += [
            (mixed + "11" + ")" * depth, 12),
            ("!" * (depth - 1) + "0", 12),
            ("0|0&(" * depth + "0" + ")" * depth, 12),
        ]
        cases += [(text, 5) for text in _MIXED_CHAINS + [_random_chain(rng, 5) for _ in range(200)]]
        cases += [(" 0 & 1 ", 2), ("!!0", 1), ("007|!(00)", 8)]
        for src, arity in cases:
            code = _formula_outcome(parse_formula, src, arity)
            assert isinstance(code, bytes), (src[:60], code)
            assert code == _formula_outcome(reference_parse_formula, src, arity), src[:60]

    @pytest.mark.parametrize(
        "src",
        [
            "0)$",
            "(0 1$",
            "0 1",
            "0(",
            "0!",
            "(0!",
            "0&",
            "(0|",
            "",
            " ",
            "!",
            ")",
            "0&)",
            "12",
            "0" * 5000 + "1",
            "9" * 5000,
            "0\u00b2",
        ]
        + [
            text
            for depth in (MAX_FORMULA_DEPTH, MAX_FORMULA_DEPTH + 1)
            for text in (
                "(" * depth + "0" + ")" * depth,
                "!" * depth + "0",
                "!(" * depth + "0" + ")" * depth,
            )
        ],
        ids=lambda src: src if len(src) <= 8 else f"{src[:4]}..({len(src)})",
    )
    def test_edges_have_the_same_outcome(self, src):
        assert _formula_outcome(parse_formula, src, 2) == _formula_outcome(
            reference_parse_formula, src, 2
        )

    def test_seeded_strings_have_the_same_outcome(self):
        rng = random.Random(40)
        errors = 0
        for _ in range(2000):
            arity = rng.randint(1, 12)
            src = _random_formula_source(rng, arity)
            outcome = _formula_outcome(parse_formula, src, arity)
            assert outcome == _formula_outcome(reference_parse_formula, src, arity), (arity, src)
            errors += isinstance(outcome, str)
        assert 500 < errors < 1500, errors


class TestParseGame:
    def test_sequential_round_trip_solves_like_the_oracle(self):
        game = parse_game(_SEQ_DOC)
        assert isinstance(game, SequentialGameSpec)
        assert backward_induction(game) == backward_induction_oracle(game)
        assert backward_induction(game) == (("L", "l"), (2, 1))

    def test_simultaneous_document(self):
        game = parse_game(_SIM_DOC)
        assert isinstance(game, SimultaneousGameSpec)
        assert game.payoff("A", "A") == (1, 1)
        assert game.payoff("A", "B") == (0, 0)

    def test_empty_stages_make_a_degenerate_game(self):
        doc = {
            "type": "sequential",
            "players": ["Solo"],
            "stages": [],
            "payoffs": {"": [5]},
        }
        game = parse_game(doc)
        assert backward_induction(game) == ((), (5,))

    def test_missing_payoff_cell(self):
        doc = json.loads(json.dumps(_SEQ_DOC))
        del doc["payoffs"]["R,r"]
        with pytest.raises(GameFileError, match="missing payoff for play 'R,r'"):
            parse_game(doc)

    def test_controller_out_of_range(self):
        doc = json.loads(json.dumps(_SEQ_DOC))
        doc["stages"][1]["controller"] = 5
        with pytest.raises(GameFileError, match="controller 5 out of range"):
            parse_game(doc)

    def test_wrong_utility_vector_length(self):
        doc = json.loads(json.dumps(_SEQ_DOC))
        doc["payoffs"]["L,l"] = [2, 1, 0]
        with pytest.raises(GameFileError, match="has 3 entries, expected 2"):
            parse_game(doc)

    def test_non_integer_utilities_are_rejected(self):
        doc = json.loads(json.dumps(_SIM_DOC))
        doc["payoffs"]["A,A"] = [1.5, 1]
        with pytest.raises(GameFileError, match="array of integers"):
            parse_game(doc)

    def test_unknown_payoff_keys_are_rejected(self):
        doc = json.loads(json.dumps(_SIM_DOC))
        doc["payoffs"]["C,C"] = [0, 0]
        with pytest.raises(GameFileError, match="does not match any play"):
            parse_game(doc)

    def test_unknown_game_type_is_rejected(self):
        with pytest.raises(GameFileError, match='"type"'):
            parse_game({"type": "repeated"})

    def test_sequential_needs_a_player(self):
        doc = json.loads(json.dumps(_SEQ_DOC))
        doc["players"] = []
        with pytest.raises(GameFileError, match="^sequential game needs at least one player$"):
            parse_game(doc)

    def test_stage_without_moves(self):
        doc = json.loads(json.dumps(_SEQ_DOC))
        doc["stages"][0]["moves"] = []
        with pytest.raises(GameFileError, match="^stage 0 has no moves$"):
            parse_game(doc)

    def test_sequential_stage_with_a_repeated_move(self):
        doc = json.loads(json.dumps(_SEQ_DOC))
        doc["stages"][1]["moves"] = ["l", "r", "l"]
        with pytest.raises(GameFileError, match="^stage 1 repeats move 'l'$"):
            parse_game(doc)

    @pytest.mark.parametrize("which, index", [("first", 0), ("second", 1)])
    def test_simultaneous_move_list_with_a_repeated_move(self, which, index):
        doc = json.loads(json.dumps(_SIM_DOC))
        doc["moves"][index] = ["A", "A"]
        with pytest.raises(GameFileError, match=f"^{which} move list repeats move 'A'$"):
            parse_game(doc)

    def test_simultaneous_needs_two_players(self):
        doc = json.loads(json.dumps(_SIM_DOC))
        doc["players"] = ["Solo"]
        with pytest.raises(GameFileError, match="two players"):
            parse_game(doc)

    def test_every_cell_of_seeded_documents_round_trips(self):
        _assert_every_cell_round_trips(parse_game)

    def test_a_transposed_simultaneous_table_is_caught(self):
        transposed = source_mutant(
            parse_game,
            ("{x: {} for x in row_moves}", "{y: {} for y in col_moves}"),
            ("rows[x][y] = utilities", "rows[y][x] = utilities"),
        )
        # A square game with shared move names reads a wrong cell; any
        # other game reads a move its row dict lacks.
        with pytest.raises((AssertionError, KeyError)):
            _assert_every_cell_round_trips(transposed)

    def test_equal_vectors_are_one_object(self):
        for doc, plays in _valid_game_docs():
            game = parse_game(doc)
            if doc["type"] == "sequential":
                returned = [game.payoff(play) for play in plays]
            else:
                returned = [game.payoff(*play) for play in plays]
            distinct = set(map(tuple, doc["payoffs"].values()))
            assert len(set(map(id, returned))) == len(distinct), doc

    @pytest.mark.parametrize("kind", ["sequential", "simultaneous"])
    def test_plays_that_share_a_key_are_rejected(self, kind):
        _assert_shared_keys_are_rejected(cli._parse_payoff_table, kind)

    @pytest.mark.parametrize("kind", ["sequential", "simultaneous"])
    def test_move_names_may_contain_commas(self, kind):
        payoffs = {"a,b,c": [1, 1], "a,b,b;c": [2, 2], "a,c": [3, 3], "a,b;c": [4, 4]}
        game = parse_game(_comma_doc(kind, ["c", "b;c"], payoffs))
        if kind == "sequential":
            assert game.payoff(("a,b", "c")) == (1, 1)
            assert game.payoff(("a", "b;c")) == (4, 4)
        else:
            assert game.payoff("a,b", "c") == (1, 1)
            assert game.payoff("a", "b;c") == (4, 4)


_SHARED_KEY = "plays ('a,b', 'c') and ('a', 'b,c') share the payoff key 'a,b,c'"


def _assert_shared_keys_are_rejected(build_table, kind: str) -> None:
    """Four plays that join to three keys fail with ``build_table``, and so
    does the same document with a fourth, unmatched entry."""
    doc = _comma_collision_doc(kind)
    assert _parse_outcome(doc, build_table) == _SHARED_KEY
    doc["payoffs"]["zz"] = [0, 0]
    assert _parse_outcome(doc, build_table) == _SHARED_KEY


def _reference_payoff_table(payoffs, move_lists, n_players):
    """The payoff table built and checked one play at a time, as the CLI did
    before it checked tables in bulk."""
    if not isinstance(payoffs, dict):
        raise GameFileError('"payoffs" must be an object')
    table = {}
    expected_keys = {}
    for play in itertools.product(*move_lists):
        key = ",".join(play)
        if key in expected_keys:
            raise GameFileError(
                f"plays {expected_keys[key]!r} and {play!r} share the payoff key {key!r}"
            )
        expected_keys[key] = play
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
        table[play] = tuple(raw)
    for key in payoffs:
        if key not in expected_keys:
            raise GameFileError(f"payoff key {key!r} does not match any play")
    return table


class _Vote(enum.IntEnum):
    YES = 1


_PAYOFF_FAULTS = ("missing", "extra", "utility", "length", "not a list", "IntEnum")


def _inject_payoff_fault(rng: random.Random, payoffs: dict, n_players: int) -> str:
    kind = rng.choice(_PAYOFF_FAULTS) if payoffs else "extra"
    if kind == "extra":
        payoffs[f"x{rng.randrange(9)}"] = [0] * n_players
        return kind
    key = rng.choice(list(payoffs))
    vector = payoffs[key]
    if not (isinstance(vector, list) and vector):
        vector = [0] * n_players
    vector = list(vector)
    at = rng.randrange(len(vector))
    if kind == "missing":
        del payoffs[key]
    elif kind == "utility":
        vector[at] = rng.choice([True, 1.5, None, "3", [1], {}])
        payoffs[key] = vector
    elif kind == "length":
        payoffs[key] = vector[:-1] if rng.random() < 0.5 else vector + [0]
    elif kind == "not a list":
        payoffs[key] = rng.choice([5, "1,2", {"0": 1}, None, tuple(vector)])
    else:
        vector[at] = _Vote.YES
        payoffs[key] = vector
    return kind


def _random_game_doc(rng: random.Random) -> tuple[dict, Counter]:
    """A seeded sequential or simultaneous document with 0-3 payoff faults,
    and the count of each fault kind injected."""
    if rng.random() < 0.5:
        n_players = rng.randint(1, 3)
        move_lists = [
            [f"m{j}" for j in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 4))
        ]
        doc = {
            "type": "sequential",
            "players": [f"P{i}" for i in range(n_players)],
            "stages": [
                {"controller": rng.randrange(n_players), "moves": moves} for moves in move_lists
            ],
        }
    else:
        n_players = 2
        move_lists = [[f"{side}{j}" for j in range(rng.randint(1, 4))] for side in "rc"]
        doc = {"type": "simultaneous", "players": ["Row", "Col"], "moves": move_lists}
    payoffs = {
        ",".join(play): [rng.randint(-3, 3) for _ in range(n_players)]
        for play in itertools.product(*move_lists)
    }
    n_faults = rng.randint(0, 3)
    faults = Counter(_inject_payoff_fault(rng, payoffs, n_players) for _ in range(n_faults))
    doc["payoffs"] = payoffs
    return doc, faults


def _parse_outcome(doc: dict, build_table) -> str | list:
    """The error message ``parse_game`` raises on ``doc`` with ``build_table``
    as the CLI's payoff-table builder, or the table's items in order."""
    tables = []

    def recording(*args):
        tables.append(build_table(*args))
        return tables[-1]

    with mock.patch.object(cli, "_parse_payoff_table", recording):
        try:
            parse_game(doc)
        except GameFileError as exc:
            return str(exc)
    return list(tables[0].items())


def _assert_payoff_tables_agree_with_the_reference() -> None:
    rng = random.Random(17)
    outcomes, faults = Counter(), Counter()
    build_table = cli._parse_payoff_table
    for _ in range(1500):
        doc, injected = _random_game_doc(rng)
        faults += injected
        expected = _parse_outcome(doc, _reference_payoff_table)
        assert _parse_outcome(doc, build_table) == expected, doc
        outcomes[type(expected)] += 1
    # Every fault kind, and both accepted and rejected documents, were seen.
    assert set(faults) == set(_PAYOFF_FAULTS), faults
    assert outcomes[str] > 300 and outcomes[list] > 300, outcomes


class TestBulkPayoffCheck:
    def test_tables_and_faults_agree_with_the_per_play_reference(self):
        _assert_payoff_tables_agree_with_the_reference()

    def test_an_intenum_utility_is_accepted_through_the_fallback(self):
        doc = json.loads(json.dumps(_SEQ_DOC))
        doc["payoffs"]["L,r"] = [_Vote.YES, 0]
        table = _parse_outcome(doc, cli._parse_payoff_table)
        assert table == _parse_outcome(doc, _reference_payoff_table)
        assert type(dict(table)[("L", "r")][0]) is _Vote
        # An earlier plain vector equal to the IntEnum one: each play keeps
        # its own element types.
        doc["payoffs"]["L,l"] = [1, 0]
        table = dict(_parse_outcome(doc, cli._parse_payoff_table))
        assert table == dict(_parse_outcome(doc, _reference_payoff_table))
        assert [type(u) for u in table[("L", "l")]] == [int, int]
        assert [type(u) for u in table[("L", "r")]] == [_Vote, int]

    @pytest.mark.parametrize(
        "old, new",
        [
            (
                "set(map(type, itertools.chain.from_iterable(raws))) <= {int}",
                "all(isinstance(u, int) for u in itertools.chain.from_iterable(raws))",
            ),
            ("and len(payoffs) == len(set(keys)) == len(keys)", ""),
        ],
        ids=["accepts bool", "skips the key count"],
    )
    def test_a_weaker_bulk_check_is_caught(self, monkeypatch, old, new):
        mutant = source_mutant(cli._parse_payoff_table, (old, new))
        monkeypatch.setattr(cli, "_parse_payoff_table", mutant)
        with pytest.raises(AssertionError):
            _assert_payoff_tables_agree_with_the_reference()

    # With fewer entries than plays the lazy per-play check meets a shared
    # key first; the bulk check states the same rule on its own.
    @pytest.mark.parametrize("kind", ["sequential", "simultaneous"])
    def test_the_bulk_check_alone_rejects_shared_keys(self, kind):
        no_lazy_check = ("if math.prod(map(len, move_lists)) > len(payoffs):", "if False:")
        _assert_shared_keys_are_rejected(
            source_mutant(cli._parse_payoff_table, no_lazy_check), kind
        )
        shares_keys = source_mutant(
            cli._parse_payoff_table,
            no_lazy_check,
            ("== len(set(keys)) == len(keys)", "== len(set(keys))"),
        )
        with pytest.raises(AssertionError):
            _assert_shared_keys_are_rejected(shares_keys, kind)


class TestDemoCommands:
    def test_first_dialogue_output(self, capsys):
        assert main(["demo-callcc", "--which", "foo"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["In foo", "In handler", "In continuation", "1"]

    def test_second_dialogue_output(self, capsys):
        assert main(["demo-callcc", "--which", "bar"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "In bar",
            "In handler",
            "In continuation",
            "Still in handler",
            "In continuation",
            "3",
        ]

    def test_dialogue_output_is_stable(self, capsys):
        main(["demo-callcc", "--which", "bar"])
        first = capsys.readouterr().out
        main(["demo-callcc", "--which", "bar"])
        assert capsys.readouterr().out == first

    def test_doubling_outer_continuation_runs(self, capsys):
        assert main(["demo-callcc", "--which", "bar", "--outer", "double"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "In bar"
        int(out[-1])  # numeric result on its own line

    def test_first_dialogue_with_doubling_outer_continuation(self, capsys):
        assert main(["demo-callcc", "--which", "foo", "--outer", "double"]) == 0
        assert capsys.readouterr().out == "In foo\nIn handler\nIn continuation\n2\n"

    def test_second_dialogue_with_doubling_outer_continuation(self, capsys):
        assert main(["demo-callcc", "--which", "bar", "--outer", "double"]) == 0
        assert capsys.readouterr().out == (
            "In bar\nIn handler\nIn continuation\nStill in handler\nIn continuation\n4\n"
        )

    def test_sat_demo_prints_trace_then_assignment(self, capsys):
        assert main(["demo-sat", "--vars", "3", "--formula", "0&!1&2"]) == 0
        out = capsys.readouterr().out.splitlines()
        log, bits = sat_callcc(parse_formula("0&!1&2", 3))
        assert out == log + ["[True,False,True]"]
        assert bits == (True, False, True)

    def test_sat_demo_prints_what_sat_callcc_logs_on_seeded_formulas(self, capsys):
        rng = random.Random(18)
        satisfiable = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            # Random CNF, up to three literals a clause: about half satisfiable.
            formula = "&".join(
                "(" + "|".join(
                    ("!" if rng.random() < 0.5 else "") + str(rng.randrange(n))
                    for _ in range(rng.randint(1, 3))
                ) + ")"
                for _ in range(rng.randint(1, 3 * n))
            )
            assert main(["demo-sat", "--vars", str(n), "--formula", formula]) == 0
            out = capsys.readouterr().out
            log, bits = sat_callcc(parse_formula(formula, n))
            expected = io.StringIO()
            with contextlib.redirect_stdout(expected):
                for line in log:
                    print(line)
                print("[" + ",".join("True" if b else "False" for b in bits) + "]")
            assert out == expected.getvalue(), formula
            satisfiable += any(bits)
        assert 50 < satisfiable < 250, satisfiable

    # The test above compares ``demo-sat`` with ``sat_callcc``, which change
    # together; these digests were taken from the search that bound each
    # probe line into a map of the dummy call, and pin the bytes alone.
    @pytest.mark.parametrize(
        "formula, answer, digest",
        [
            (
                "(0|!1)&!2&(3|4)&!(5&6)&(!7|8)&!11&(9|!10)",
                "[True,True,False,True,True,True,False,True,True,True,True,False]",
                "ac189b65c24d363c50671882a4e1914b338e2b7c7ea355f3fc630b8f14a9449f",
            ),
            (
                "(0|1)&(!0|1)&(0|!1)&(!0|!1|11)&!11",
                "[" + ",".join(["False"] * 12) + "]",
                "0c59e2eb9ee6601b465c88d59e55697f35e5136cb6b96694ef6e37c97641d87f",
            ),
        ],
        ids=["satisfiable", "unsatisfiable"],
    )
    def test_sat_demo_transcript_is_pinned(self, capsys, formula, answer, digest):
        assert main(["demo-sat", "--vars", "12", "--formula", formula]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        # The log's 5 * 2^n - 4 lines, then the answer.
        assert len(lines) == 5 * 2**12 - 3
        assert lines[-1] == answer
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sat_demo_help_documents_the_dummy_assignment(self, capsys):
        assert main(["demo-sat", "--help"]) == 0
        assert "all-False" in capsys.readouterr().out

    def test_sat_demo_rejects_bad_formulas(self, capsys):
        assert main(["demo-sat", "--vars", "2", "--formula", "0&&1"]) == 2
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "formula, error",
        [
            ("²", "unexpected character '²' at position 0"),
            ("0|1²", "unexpected character '²' at position 3"),
            ("٢", "unexpected character '٢' at position 0"),
            ("1" * 5000, f"variable index {'1' * 5000} out of range for arity 3 at position 0"),
            (
                "0&" + "9" * 4301,
                f"variable index {'9' * 4301} out of range for arity 3 at position 2",
            ),
        ],
        ids=["superscript", "superscript-after-index", "arabic-indic", "5000-ones", "4301-nines"],
    )
    def test_sat_demo_rejects_indices_that_are_not_small_ascii_decimals(
        self, capsys, formula, error
    ):
        # str.isdigit accepts "²" and "٢", and int refuses more than 4,300
        # digits, so neither may decide what an index is.
        assert main(["demo-sat", "--vars", "3", "--formula", formula]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_sat_demo_reads_an_index_past_any_number_of_leading_zeros(self, capsys):
        assert main(["demo-sat", "--vars", "3", "--formula", "0" * 5000 + "1&!0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "[False,True,True]"

    def test_sat_demo_rejects_nonpositive_vars(self, capsys):
        assert main(["demo-sat", "--vars", "0", "--formula", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --vars must be at least 1\n")

    @pytest.mark.parametrize("n_vars", [MAX_DEMO_SAT_VARS + 1, 130])
    def test_sat_demo_rejects_vars_above_the_limit(self, capsys, n_vars):
        # The trace log doubles per variable, and 130 variables nest deeper
        # than the recursion limit.
        assert main(["demo-sat", "--vars", str(n_vars), "--formula", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --vars is {n_vars}; the limit is 20\n"

    @pytest.mark.parametrize(
        "formula, position",
        [
            ("(" * 2000 + "0" + ")" * 2000, 200),
            ("!" * 5000 + "0", 200),
            # The 201st "(" of a chain nested through parentheses.
            ("0|(" * 201 + "0" + ")" * 201, 602),
            ("0&(" * 201 + "0" + ")" * 201, 602),
        ],
        ids=["parentheses", "negations", "or-chain", "and-chain"],
    )
    def test_sat_demo_rejects_formulas_nested_too_deeply(self, capsys, formula, position):
        # Each of these used to end in an uncaught RecursionError.
        assert main(["demo-sat", "--vars", "1", "--formula", formula]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: formula nests deeper than 200 levels at position {position}\n"
        )

    @pytest.mark.parametrize("op", "|&", ids=["or-chain", "and-chain"])
    def test_sat_demo_accepts_flat_chains_of_any_length(self, capsys, op):
        # A flat chain is one n-ary node, so its length is not a depth.
        assert main(["demo-sat", "--vars", "1", "--formula", op.join(["0"] * 5000)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "[True]"

    def test_sat_demo_accepts_a_formula_at_the_depth_limit(self, capsys):
        # 200 nested parentheses, the deepest that the limit admits.
        depth = MAX_FORMULA_DEPTH
        formula = "(" * depth + "0" + ")" * depth
        assert main(["demo-sat", "--vars", "1", "--formula", formula]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "[True]"

    @pytest.mark.parametrize(
        "formula",
        [
            "!" * MAX_FORMULA_DEPTH + "0",
            "|".join(str(i % 12) for i in range(MAX_FORMULA_DEPTH + 1)),
            "&".join(str(i % 12) for i in range(MAX_FORMULA_DEPTH + 1)),
            "".join(
                f"{i % 12}{'&' if i % 2 else '|'}(" for i in range(MAX_FORMULA_DEPTH)
            )
            + "11"
            + ")" * MAX_FORMULA_DEPTH,
            # Two BoolOps per parenthesis, 400 nested: the compiler's worst case.
            "0|0&(" * MAX_FORMULA_DEPTH + "0" + ")" * MAX_FORMULA_DEPTH,
        ],
        ids=["negations", "or-chain", "and-chain", "mixed-nesting", "two-boolops-per-level"],
    )
    def test_sat_demo_runs_the_deepest_formulas_at_twelve_variables(self, capsys, formula):
        # demo-sat compiles the formula as it parses it, before the search.
        assert main(["demo-sat", "--vars", "12", "--formula", formula]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == format_assignment(sat_product(parse_formula(formula, 12)))

    @pytest.mark.parametrize("satisfiable", [True, False], ids=["planted", "random"])
    def test_sat_demo_solves_a_cnf_of_300_clauses(self, capsys, satisfiable):
        # 300 clauses over 12 variables: a random CNF this dense is unsatisfiable.
        rng = random.Random(23)
        witness = tuple(rng.random() < 0.5 for _ in range(12))
        clauses = _planted_cnf(rng, 12, 300, witness) if satisfiable else _random_cnf(rng, 12, 300)
        text = _cnf_text(clauses)
        assert main(["demo-sat", "--vars", "12", "--formula", text]) == 0
        formula = parse_formula(text, 12)
        answer = sat_product(formula)
        assert capsys.readouterr().out.splitlines()[-1] == format_assignment(answer)
        assert (sat_oracle(formula) is not None) is satisfiable
        assert formula.evaluate(answer) is satisfiable


class TestSolveCommand:
    def test_sequential_file(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(_SEQ_DOC))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["play: L l", "outcome: 2 1"]

    def test_simultaneous_file(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(_SIM_DOC))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "equilibrium: A A -> 1 1",
            "equilibrium: B B -> 1 1",
        ]

    def test_game_without_equilibria(self, tmp_path, capsys):
        doc = json.loads(json.dumps(_SIM_DOC))
        doc["payoffs"] = {
            "A,A": [1, -1],
            "A,B": [-1, 1],
            "B,A": [-1, 1],
            "B,B": [1, -1],
        }
        path = tmp_path / "pennies.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["no pure equilibrium"]

    @pytest.mark.parametrize("kind", ["sequential", "simultaneous"])
    def test_plays_that_share_a_payoff_key_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "commas.json"
        path.write_text(json.dumps(_comma_collision_doc(kind)))
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {_SHARED_KEY}\n")

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/game.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read /nonexistent/game.json: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path} is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
        )

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text")

    def test_json_nested_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path} nests JSON arrays or objects too deeply\n"

    def test_json_integer_over_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json.load raises a plain ValueError for it: int refuses more than
        # 4,300 digits.
        path = tmp_path / "long.json"
        path.write_text(json.dumps(_single_move_doc(1)).replace("[7]", f"[{'9' * 4301}]"))
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: Exceeds the limit (4300 ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_json_integer_at_the_digit_limit_solves(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(_single_move_doc(1)).replace("[7]", f"[{'9' * 4300}]"))
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == f"play: x\noutcome: {'9' * 4300}\n"

    def test_repeated_moves_are_rejected(self, tmp_path, capsys):
        doc = {
            "type": "simultaneous",
            "players": ["Row", "Col"],
            "moves": [["a", "a"], ["x"]],
            "payoffs": {"a,x": [1, 1]},
        }
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: first move list repeats move 'a'\n"

    def test_invalid_game_document(self, tmp_path, capsys):
        doc = json.loads(json.dumps(_SEQ_DOC))
        del doc["payoffs"]["L,l"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 2
        assert "missing payoff" in capsys.readouterr().err

    def test_game_at_the_stage_limit_solves(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(_single_move_doc(MAX_SEQUENTIAL_STAGES)))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["play: " + " ".join(["x"] * MAX_SEQUENTIAL_STAGES), "outcome: 7"]

    def test_game_above_the_stage_limit_is_rejected(self, tmp_path, capsys):
        with pytest.raises(GameFileError, match="limit is 100"):
            parse_game(_single_move_doc(MAX_SEQUENTIAL_STAGES + 1))
        path = tmp_path / "too_deep.json"
        path.write_text(json.dumps(_single_move_doc(200)))
        assert main(["solve", str(path)]) == 2
        assert "200 stages; the limit is 100" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [
            (None, "missing payoff for play {key!r}"),
            ([True], "payoff for {key!r} must be an array of integers"),
        ],
        ids=["no payoffs", "a bad first payoff"],
    )
    def test_oversized_game_fails_before_its_plays_are_listed(
        self, tmp_path, capsys, entry, message
    ):
        # 2**100 plays: listing them first would never finish.
        key = ",".join(["l"] * MAX_SEQUENTIAL_STAGES)
        doc = {
            "type": "sequential",
            "players": ["P"],
            "stages": [{"controller": 0, "moves": ["l", "r"]}] * MAX_SEQUENTIAL_STAGES,
            "payoffs": {} if entry is None else {key: entry},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["solve", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: " + message.format(key=key) + "\n"

    def test_oversized_simultaneous_game_fails_before_its_pairs_are_listed(
        self, tmp_path, capsys
    ):
        doc = {
            "type": "simultaneous",
            "players": ["Row", "Col"],
            "moves": [[f"r{i}" for i in range(2000)], [f"c{i}" for i in range(2000)]],
            "payoffs": {},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["solve", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: missing payoff for play 'r0,c0'\n"

    def test_backward_induction_has_headroom_above_the_stage_limit(self):
        # Twice the limit still solves under pytest, so a change that adds
        # frames per stage fails here before the limit itself can hit the
        # recursion limit.
        n = 2 * MAX_SEQUENTIAL_STAGES
        game = SequentialGameSpec(
            ("P",), (Stage(0, ("x",)),) * n, {("x",) * n: (7,)}.__getitem__
        )
        assert backward_induction(game) == (("x",) * n, (7,))


class TestLawsCommand:
    def test_reports_failures_with_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "selcc.laws.run_all",
            lambda seed, samples: [LawReport("good", 5, 0), LawReport("bad", 5, 2)],
        )
        assert main(["laws"]) == 1
        out = capsys.readouterr().out
        assert "PASS good (5 cases)" in out
        assert "FAIL bad (2/5 failed)" in out

    def test_all_passing_reports_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "selcc.laws.run_all",
            lambda seed, samples: [LawReport("good", 5, 0)],
        )
        assert main(["laws", "--seed", "3", "--samples", "10"]) == 0
        assert "1/1 suites passed" in capsys.readouterr().out

    def test_negative_samples_are_rejected(self, capsys, monkeypatch):
        def run_all(seed, samples):
            raise AssertionError("no suite may run")

        monkeypatch.setattr("selcc.laws.run_all", run_all)
        assert main(["laws", "--samples", "-3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --samples must be at least 0\n")

    def test_samples_up_to_the_limit_are_accepted(self, capsys, monkeypatch):
        seen = []

        def run_all(seed, samples):
            seen.append(samples)
            return [LawReport("good", samples, 0)]

        monkeypatch.setattr("selcc.laws.run_all", run_all)
        assert main(["laws", "--samples", str(MAX_LAW_SAMPLES)]) == 0
        assert seen == [MAX_LAW_SAMPLES]
        assert capsys.readouterr().err == ""

    def test_samples_above_the_limit_are_rejected(self, capsys, monkeypatch):
        def run_all(seed, samples):
            raise AssertionError("no suite may run")

        monkeypatch.setattr("selcc.laws.run_all", run_all)
        assert main(["laws", "--samples", str(MAX_LAW_SAMPLES + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --samples is {MAX_LAW_SAMPLES + 1}; the limit is {MAX_LAW_SAMPLES}\n"
        )

    def test_full_run_on_the_real_suites_succeeds(self, capsys):
        assert main(["laws", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "suites passed" in out

    def test_default_transcript_is_pinned(self, capsys):
        # Every suite's name, case count and failure count, byte for byte, so
        # a faster driver cannot change what the suites cover unnoticed.
        assert main(["laws"]) == 0
        out = capsys.readouterr().out
        assert not any(line.startswith("FAIL") for line in out.splitlines())
        assert re.fullmatch(r"(\d+)/\1 suites passed, \d+ cases total", out.splitlines()[-1])
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b44fc0ab6d8db08bb23a46d89e33ff3000adbfb38351b6dbb9c922495992334d"
        )


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["demo-callcc"]) == 2
        capsys.readouterr()

    def test_no_arguments_at_all(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "selcc", "demo-callcc", "--which", "foo"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "1"


class TestParserBuiltOnce:
    """``main`` builds its parser on its first call and keeps it."""

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(
        self, capsys, monkeypatch
    ):
        # argparse wraps usage at $COLUMNS, so pin it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        sat = ["demo-sat", "--vars", "3", "--formula", "0&!1&2"]
        env = child_env()
        fresh = subprocess.run(
            [sys.executable, "-m", "selcc", *sat], capture_output=True, text=True, env=env
        )
        missing_vars = subprocess.run(
            [sys.executable, "-m", "selcc", "demo-sat", "--formula", "0"],
            capture_output=True,
            text=True,
            env=env,
        )
        negative_samples = subprocess.run(
            [sys.executable, "-m", "selcc", "laws", "--samples", "-1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert fresh.returncode == 0 and missing_vars.returncode == 2
        # A refusal raised inside a command's handler exits 2 from the process too.
        assert (
            negative_samples.returncode,
            negative_samples.stdout,
            negative_samples.stderr,
        ) == (2, "", "error: --samples must be at least 0\n")

        assert main(["demo-sat", "--formula", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: selcc demo-sat")
        assert captured.err == missing_vars.stderr
        assert main(sat) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)

    def test_main_is_re_entrant(self, capsys, monkeypatch):
        parse = cli.parse_formula

        def parse_after_a_nested_main(src, arity):
            assert main(["demo-callcc", "--which", "foo"]) == 0
            assert main(["demo-sat", "--vars", "0", "--formula", "0"]) == 2
            return parse(src, arity)

        monkeypatch.setattr(cli, "parse_formula", parse_after_a_nested_main)
        assert main(["demo-sat", "--vars", "3", "--formula", "0&!1&2"]) == 0
        captured = capsys.readouterr()
        log, bits = sat_callcc(parse("0&!1&2", 3))
        nested = "In foo\nIn handler\nIn continuation\n1\n"
        assert captured.out == nested + "".join(line + "\n" for line in log) + "[True,False,True]\n"
        assert captured.err == "error: --vars must be at least 1\n"

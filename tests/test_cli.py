"""Tests for the formula parser, game-file validation, and the CLI commands."""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selcc import (
    FormulaParseError,
    GameFileError,
    LawReport,
    SequentialGameSpec,
    SimultaneousGameSpec,
    backward_induction,
    backward_induction_oracle,
    format_assignment,
    main,
    parse_formula,
    parse_game,
    sat_callcc,
    sat_product,
)
from selcc import cli
from selcc.cli import MAX_DEMO_SAT_VARS, MAX_FORMULA_DEPTH, MAX_SEQUENTIAL_STAGES

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


def _random_cnf(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """A 3-CNF at clause/variable ratio 4.26; literal ``v + 1`` or ``-(v + 1)``."""
    return [
        tuple(v + 1 if rng.random() < 0.5 else -(v + 1) for v in rng.sample(range(n), 3))
        for _ in range(round(4.26 * n))
    ]


def _cnf_text(clauses: list[tuple[int, ...]]) -> str:
    return "&".join(
        "(" + "|".join(str(l - 1) if l > 0 else f"!{-l - 1}" for l in clause) + ")"
        for clause in clauses
    )


def _cnf_holds(clauses: list[tuple[int, ...]], bits: tuple[bool, ...]) -> bool:
    return all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses)


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


def _assert_cnfs_agree_with_clause_evaluation() -> None:
    rng = random.Random(8)
    for n in range(8, 13):
        for _ in range(2):
            clauses = _random_cnf(rng, n)
            formula = parse_formula(_cnf_text(clauses), n)
            for bits in itertools.product((False, True), repeat=n):
                assert formula.evaluate(bits) is _cnf_holds(clauses, bits), (n, bits)


def _assert_chains_agree_with_python() -> None:
    rng = random.Random(5)
    texts = _MIXED_CHAINS + [_random_chain(rng, 5) for _ in range(200)]
    for text in texts:
        formula, reference = parse_formula(text, 5), _python_reference(text)
        for bits in itertools.product((False, True), repeat=5):
            assert formula.evaluate(bits) is reference(bits), (text, bits)


class TestCompiledFormula:
    def test_cnfs_agree_with_a_clause_evaluator(self):
        _assert_cnfs_agree_with_clause_evaluation()

    def test_mixed_chains_agree_with_python_operators(self):
        _assert_chains_agree_with_python()

    def test_a_broken_merge_is_caught(self, monkeypatch):
        chain = cli._chain

        def folds_into_left_group(op, terms):
            # Appends the terms after a parenthesised group to that group,
            # whatever its operator: "(0|1)&2" becomes "0|1|2".
            first = terms[0]
            if len(terms) > 1 and isinstance(first, tuple) and first[0] != "!":
                return first + tuple(terms[1:])
            return chain(op, terms)

        monkeypatch.setattr(cli, "_chain", folds_into_left_group)
        with pytest.raises(AssertionError):
            _assert_cnfs_agree_with_clause_evaluation()
        with pytest.raises(AssertionError):
            _assert_chains_agree_with_python()

    def test_evaluation_takes_exactly_arity_values(self):
        formula = parse_formula("0|!1", 3)
        assert formula.evaluate([False, False, True]) is True
        for bits in [(True,), (True, False), (True, False, False, False)]:
            with pytest.raises(ValueError):
                formula.evaluate(bits)


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
        assert "at least 1" in capsys.readouterr().err

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
            ("|".join(["0"] * 5000), 401),
            ("&".join(["0"] * 5000), 401),
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

    def test_sat_demo_accepts_a_formula_at_the_depth_limit(self, capsys):
        # Parentheses take the most parser frames per level.
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
        ],
        ids=["negations", "or-chain", "and-chain", "mixed-nesting"],
    )
    def test_sat_demo_runs_the_deepest_formulas_at_twelve_variables(self, capsys, formula):
        # demo-sat compiles the formula as it parses it, before the search.
        assert main(["demo-sat", "--vars", "12", "--formula", formula]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == format_assignment(sat_product(parse_formula(formula, 12)))


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

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/game.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

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


class TestLawsCommand:
    def test_reports_failures_with_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "selcc.cli.run_all",
            lambda seed, samples: [LawReport("good", 5, 0), LawReport("bad", 5, 2)],
        )
        assert main(["laws"]) == 1
        out = capsys.readouterr().out
        assert "PASS good (5 cases)" in out
        assert "FAIL bad (2/5 failed)" in out

    def test_all_passing_reports_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "selcc.cli.run_all",
            lambda seed, samples: [LawReport("good", 5, 0)],
        )
        assert main(["laws", "--seed", "3", "--samples", "10"]) == 0
        assert "1/1 suites passed" in capsys.readouterr().out

    def test_negative_samples_are_rejected(self, capsys, monkeypatch):
        def run_all(seed, samples):
            raise AssertionError("no suite may run")

        monkeypatch.setattr("selcc.cli.run_all", run_all)
        assert main(["laws", "--samples", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "--samples" in captured.err

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
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "1"

"""Tests for the formula parser, game-file validation, and the CLI commands."""
from __future__ import annotations

import itertools
import json
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
    main,
    parse_formula,
    parse_game,
    sat_callcc,
)
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

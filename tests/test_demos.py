"""The demo scripts, run as ``python demos/<name>.py`` runs them, against
their whole standard output.

``dialogue_demo.py`` is pinned beside the call/cc tests, in
``tests/test_callcc.py``.
"""
from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

SAT_DEMO = [
    "== b0 and not b1 and b2 ==",
    "  chosen assignment: [True,False,True]",
    "  satisfies formula: True",
    "  oracle witness:    [True,False,True]",
    "",
    "== exactly one of three ==",
    "  chosen assignment: [True,False,False]",
    "  satisfies formula: True",
    "  oracle witness:    [False,False,True]",
    "",
    "== unsatisfiable ==",
    "  chosen assignment: [False,False]",
    "  satisfies formula: False",
    "  oracle witness:    none",
    "",
    "== instrumented run: b0 and not b1 and b2 ==",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,True,True]",
    "  b = False, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,True,False]",
    "  b = False, ",
    "  Continuation called with [False,False,False]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,False,True]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,False,True]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,True,True]",
    "  b = False, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,True,False]",
    "  b = False, ",
    "  Continuation called with [False,False,False]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,False,True]",
    "  b = True, ",
    "  Continuation called with [False,False,False]",
    "  Continuation called with [True,False,True]",
    "  final: [True,False,True]",
    "",
    "Note: the all-False lines are dummy continuation calls; the"
    " genuine calls sweep TTT, TTF, TFT, ... before settling.",
]

SEQUENTIAL_GAMES_DEMO = [
    "== two stages, two players ==",
    "  play:    L l",
    "  outcome: (2, 1)",
    "  oracle agrees: True",
    "",
    "== three alternating stages ==",
    "  play:    up block left",
    "  outcome: (2, 1)",
    "  oracle agrees: True",
    "",
]

SIMULTANEOUS_GAMES_DEMO = [
    "== pure coordination ==",
    "  equilibrium: (A, A) -> (1, 1)",
    "  equilibrium: (B, B) -> (1, 1)",
    "  oracle agrees: True",
    "",
    "== matching pennies ==",
    "  no pure equilibrium",
    "  oracle agrees: True",
    "",
    "== battle of the sexes ==",
    "  equilibrium: (opera, opera) -> (2, 1)",
    "  equilibrium: (football, football) -> (1, 2)",
    "  oracle agrees: True",
    "",
    "== voting agents (two fixed ballots: A and B) ==",
    "  conformist is happy voting: ('A', 'B')",
    "  contrarian is happy voting: ('C',)",
]


@pytest.mark.parametrize(
    "script, expected",
    [
        ("sat_demo.py", SAT_DEMO),
        ("sequential_games_demo.py", SEQUENTIAL_GAMES_DEMO),
        ("simultaneous_games_demo.py", SIMULTANEOUS_GAMES_DEMO),
    ],
    ids=["sat", "sequential games", "simultaneous games"],
)
def test_demo_script_output(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == expected

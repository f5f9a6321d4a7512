"""The demo scripts, run as ``python demos/<name>.py`` runs them, against
their whole standard output; README's Library tour against the output
lines it shows and the submodules it loads; and README's design notes
against CHANGES.md.

``dialogue_demo.py`` is pinned beside the call/cc tests, in
``tests/test_callcc.py``.
"""
from __future__ import annotations

import ast
import re
import runpy
from pathlib import Path

import pytest

from helpers import modules_loaded_by

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

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


def _library_tour() -> str:
    """The ``python`` block under README's ``## Library tour`` heading."""
    section = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _tour_outputs(source: str) -> list[tuple[str, str]]:
    """Run ``source`` statement by statement and pair the ``repr`` of each
    expression statement with the ``# …`` line just below it."""
    lines = source.splitlines()
    namespace: dict = {}
    pairs = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            shown = lines[statement.end_lineno] if statement.end_lineno < len(lines) else ""
            pairs.append((repr(value), shown.removeprefix("# ")))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    return pairs


class TestReadmeLibraryTour:
    def test_each_shown_output_is_the_repr_of_the_expression_above_it(self):
        pairs = _tour_outputs(_library_tour())
        assert len(pairs) == 3
        assert [got for got, _ in pairs] == [shown for _, shown in pairs]

    def test_a_wrong_shown_output_is_caught(self):
        source = _library_tour().replace("# (True, False, True)", "# (True, True, True)")
        pairs = _tour_outputs(source)
        assert sum(got != shown for got, shown in pairs) == 1

    def test_the_tour_loads_neither_the_laws_nor_the_cli(self):
        loaded = modules_loaded_by(_library_tour())
        assert loaded == ["selcc.callcc", "selcc.core", "selcc.effects", "selcc.games", "selcc.search"]


def _joined(text: str) -> str:
    """``text`` with its line breaks and runs of spaces joined into one space."""
    return " ".join(text.split())


def _pointer_phrases(readme: str) -> list[str]:
    """The phrase each "entry on …" or "entries for …" pointer names, up to
    the next punctuation, split at " and for ", without quotes or a leading
    "the", in lower case."""
    found = re.findall(r"\bentr(?:y on|ies for) (.+?)(?=[.,;:()]|$)", _joined(readme))
    phrases = [part.strip(' "').casefold() for match in found for part in match.split(" and for ")]
    return [phrase.removeprefix("the ") for phrase in phrases]


# A number, then a unit of time, memory or throughput.
MEASUREMENT = re.compile(r"\d(?:[\d,.]*\d)?\s*(?:ms|µs|s|MB|items/s)\b")


class TestReadmeDesignNotes:
    """README states each design once, with a pointer to the CHANGES.md entry
    that keeps its measurements; the measurements stay out of README."""

    def test_each_pointer_names_a_phrase_in_changes(self):
        readme = (ROOT / "README.md").read_text()
        changes = _joined((ROOT / "CHANGES.md").read_text()).casefold()
        phrases = _pointer_phrases(readme)
        assert [phrase for phrase in phrases if phrase not in changes] == []
        assert len(phrases) >= 10

    def test_each_named_benchmark_file_exists(self):
        names = set(re.findall(r"BENCH_\w+\.json", (ROOT / "README.md").read_text()))
        assert [name for name in sorted(names) if not (ROOT / name).is_file()] == []

    def test_the_design_notes_hold_no_time_or_memory_figure(self):
        notes = (ROOT / "README.md").read_text().split("\n## Design notes\n", 1)[1]
        assert MEASUREMENT.findall(_joined(notes.split("\n## ", 1)[0])) == []

    def test_a_dangling_pointer_and_a_timing_are_caught(self):
        text = "Its timings are in the entry on the lifted probe step. It took 94 → 27 ms."
        assert _pointer_phrases(text) == ["lifted probe step"]
        assert MEASUREMENT.findall(text) == ["27 ms"]
        assert MEASUREMENT.findall("0.30 µs, 117 MB, 5.6–6.3 s, 244.6 items/s") == [
            "0.30 µs", "117 MB", "6.3 s", "244.6 items/s"
        ]
        assert MEASUREMENT.findall("18 stages, 2 moves, 3×6, 4·2ⁿ−3 binds") == []

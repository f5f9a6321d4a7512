"""Tests for the package surface: ``selcc`` loads each submodule on first use
of one of its names, and each public name is the object its submodule
defines."""
from __future__ import annotations

import importlib
import json

import pytest

import selcc

from helpers import modules_loaded_by

SUBMODULES = ("callcc", "cli", "core", "effects", "games", "laws", "search")

_SEQ_DOC = {
    "type": "sequential",
    "players": ["P1", "P2"],
    "stages": [{"controller": 0, "moves": ["L", "R"]}, {"controller": 1, "moves": ["l", "r"]}],
    "payoffs": {"L,l": [2, 1], "L,r": [0, 0], "R,l": [1, 2], "R,r": [3, 0]},
}


class TestLoadingOnFirstUse:
    def test_a_bare_import_loads_no_submodule(self):
        assert modules_loaded_by("import selcc") == []

    def test_the_nondet_players_load_only_their_own_modules(self):
        code = "import selcc\nselcc.nondet_effect, selcc.sel_sequence, selcc.nondet_argmax_selection"
        assert modules_loaded_by(code) == ["selcc.core", "selcc.effects", "selcc.games"]

    def test_parsing_loads_neither_the_laws_nor_random(self):
        code = "import selcc\nselcc.parse_formula('0&1', 2)\nselcc.parse_game(" + repr(_SEQ_DOC) + ")"
        loaded = modules_loaded_by(code)
        assert "selcc.cli" in loaded
        assert "selcc.laws" not in loaded and "random" not in loaded

    def test_demo_sat_and_solve_load_neither_the_laws_nor_random(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps(_SEQ_DOC))
        for argv in (["demo-sat", "--vars", "3", "--formula", "0&1"], ["solve", str(game)]):
            loaded = modules_loaded_by(f"import selcc\nassert selcc.main({argv!r}) == 0")
            assert "selcc.cli" in loaded, argv
            assert "selcc.laws" not in loaded and "random" not in loaded, argv

    def test_formulas_load_no_games(self):
        for code in (
            "import selcc\nselcc.parse_formula('0&1', 2)",
            "import selcc\nassert selcc.main(['demo-sat', '--vars', '3', '--formula', '0&1']) == 0",
        ):
            loaded = modules_loaded_by(code)
            assert "selcc.search" in loaded, code
            assert "selcc.games" not in loaded, code

    def test_games_load_neither_the_search_nor_callcc(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps(_SEQ_DOC))
        for code in (
            "import selcc\nselcc.parse_game(" + repr(_SEQ_DOC) + ")",
            f"import selcc\nassert selcc.main(['solve', {str(game)!r}]) == 0",
        ):
            loaded = modules_loaded_by(code)
            assert "selcc.games" in loaded, code
            assert "selcc.search" not in loaded and "selcc.callcc" not in loaded, code

    def test_the_dialogues_load_callcc_but_no_games(self):
        argv = ["demo-callcc", "--which", "foo"]
        loaded = modules_loaded_by(f"import selcc\nassert selcc.main({argv!r}) == 0")
        assert "selcc.callcc" in loaded
        assert "selcc.games" not in loaded

    def test_the_laws_command_loads_the_laws(self):
        loaded = modules_loaded_by("import selcc\nassert selcc.main(['laws', '--samples', '0']) == 0")
        assert "selcc.laws" in loaded and "random" in loaded

    def test_each_submodule_resolves_after_a_bare_import(self):
        code = f"import selcc\nfor m in {SUBMODULES!r}: assert getattr(selcc, m).__name__ == 'selcc.' + m"
        assert modules_loaded_by(code) == ["random", *(f"selcc.{m}" for m in SUBMODULES)]


class TestPublicSurface:
    def test_all_holds_the_65_names_sorted(self):
        assert len(selcc.__all__) == 65
        assert selcc.__all__ == sorted(set(selcc.__all__))

    def test_each_name_is_the_object_its_submodule_defines(self):
        homes = {}
        for module in SUBMODULES:
            loaded = importlib.import_module(f"selcc.{module}")
            for name in selcc._EXPORTS[module]:
                assert getattr(selcc, name) is getattr(loaded, name), name
                homes[name] = module
        assert sorted(homes) == selcc.__all__

    def test_a_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from selcc import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == selcc.__all__
        assert all(namespace[name] is getattr(selcc, name) for name in namespace)

    def test_dir_lists_every_name_and_submodule(self):
        listed = dir(selcc)
        assert set(selcc.__all__) | set(SUBMODULES) <= set(listed)
        assert listed == sorted(listed)

    def test_an_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            selcc.no_such_name
        assert not hasattr(selcc, "sel_bindd")

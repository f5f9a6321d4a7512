"""Selection and quantifier monads over pluggable effects.

The package builds continuation-passing computations in two flavours —
quantifiers ``(X -> Eff(R)) -> Eff(R)`` and selections ``(X -> Eff(R)) ->
Eff(X)`` — parameterised by an effect instance (identity, trace, or
nondeterminism).  On top of the monad structure it provides call-with-
current-continuation for both flavours, products of selections with an
instrumented SAT search, argmax players for sequential and simultaneous
games, and executable law suites covering the whole construction.

Each submodule loads on first use of one of its names (PEP 562): ``import
selcc`` loads none, and reading ``selcc.nondet_effect`` loads only
``selcc.effects``, so code that never runs the law suites or the command
line never compiles them.
"""
from __future__ import annotations

import importlib

# Each submodule and the public names it defines.
_EXPORTS = {
    "callcc": (
        "bar_computation", "callcc_quantifier", "callcc_selection", "demo_bar", "demo_foo",
        "foo_computation",
    ),
    "cli": ("FormulaParseError", "GameFileError", "main", "parse_formula", "parse_game"),
    "core": (
        "QuantifierComputation", "SelectionComputation", "invoke_coercion", "quant_bind",
        "quant_lift", "quant_unit", "run_quantifier", "run_selection", "sel_bind", "sel_lift",
        "sel_map", "sel_product", "sel_sequence", "sel_unit", "to_quantifier",
    ),
    "effects": (
        "EffectInstance", "NondetValue", "TraceValue", "identity_effect", "nondet_effect", "tell",
        "trace_effect",
    ),
    "games": (
        "SequentialGameSpec", "SimultaneousGameSpec", "Stage", "UtilityVector", "argmax_selection",
        "backward_induction", "backward_induction_oracle", "fix_selection", "max_quantifier",
        "nash_oracle", "nondet_argmax_selection", "punk_selection", "simultaneous_equilibria",
        "sum_selections",
    ),
    "laws": (
        "LawReport", "agent_partition_reports", "backward_induction_reports",
        "effect_law_reports", "morphism_reports", "quantifier_monad_reports",
        "randomized_monad_reports", "run_all", "sat_correctness_report",
        "selection_monad_reports", "sum_equilibria_report",
    ),
    "search": (
        "Assignment", "BooleanFormula", "bool_probe", "format_assignment", "sat_callcc",
        "sat_oracle", "sat_product",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    # Importing the submodule bound its own name here; bind its public names.
    globals().update({export: getattr(loaded, export) for export in _EXPORTS[module]})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})

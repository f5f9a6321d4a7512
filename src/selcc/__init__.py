"""Selection and quantifier monads over pluggable effects.

The package builds continuation-passing computations in two flavours —
quantifiers ``(X -> Eff(R)) -> Eff(R)`` and selections ``(X -> Eff(R)) ->
Eff(X)`` — parameterised by an effect instance (identity, trace, or
nondeterminism).  On top of the monad structure it provides call-with-
current-continuation for both flavours, products of selections with an
instrumented SAT search, argmax players for sequential and simultaneous
games, and executable law suites covering the whole construction.
"""
from __future__ import annotations

from .callcc import (
    bar_computation,
    callcc_quantifier,
    callcc_selection,
    demo_bar,
    demo_foo,
    foo_computation,
)
from .cli import FormulaParseError, GameFileError, main, parse_formula, parse_game
from .core import (
    QuantifierComputation,
    SelectionComputation,
    invoke_coercion,
    quant_bind,
    quant_lift,
    quant_unit,
    run_quantifier,
    run_selection,
    sel_bind,
    sel_lift,
    sel_map,
    sel_product,
    sel_sequence,
    sel_unit,
    to_quantifier,
)
from .effects import (
    EffectInstance,
    NondetValue,
    TraceValue,
    identity_effect,
    nondet_effect,
    tell,
    trace_effect,
)
from .games import (
    SequentialGameSpec,
    SimultaneousGameSpec,
    Stage,
    UtilityVector,
    argmax_selection,
    backward_induction,
    backward_induction_oracle,
    fix_selection,
    max_quantifier,
    nash_oracle,
    nondet_argmax_selection,
    punk_selection,
    sum_selections,
)
from .laws import (
    LawReport,
    agent_partition_reports,
    backward_induction_reports,
    effect_law_reports,
    morphism_reports,
    quantifier_monad_reports,
    randomized_monad_reports,
    run_all,
    sat_correctness_report,
    selection_monad_reports,
    sum_equilibria_report,
)
from .search import (
    Assignment,
    BooleanFormula,
    bool_probe,
    format_assignment,
    sat_callcc,
    sat_oracle,
    sat_product,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BooleanFormula",
    "EffectInstance",
    "FormulaParseError",
    "GameFileError",
    "LawReport",
    "NondetValue",
    "QuantifierComputation",
    "SelectionComputation",
    "SequentialGameSpec",
    "SimultaneousGameSpec",
    "Stage",
    "TraceValue",
    "UtilityVector",
    "agent_partition_reports",
    "argmax_selection",
    "backward_induction",
    "backward_induction_oracle",
    "backward_induction_reports",
    "bar_computation",
    "bool_probe",
    "callcc_quantifier",
    "callcc_selection",
    "demo_bar",
    "demo_foo",
    "effect_law_reports",
    "fix_selection",
    "foo_computation",
    "format_assignment",
    "identity_effect",
    "invoke_coercion",
    "main",
    "max_quantifier",
    "morphism_reports",
    "nash_oracle",
    "nondet_argmax_selection",
    "nondet_effect",
    "parse_formula",
    "parse_game",
    "punk_selection",
    "quant_bind",
    "quant_lift",
    "quant_unit",
    "quantifier_monad_reports",
    "randomized_monad_reports",
    "run_all",
    "run_quantifier",
    "run_selection",
    "sat_callcc",
    "sat_correctness_report",
    "sat_oracle",
    "sat_product",
    "sel_bind",
    "sel_lift",
    "sel_map",
    "sel_product",
    "sel_sequence",
    "sel_unit",
    "selection_monad_reports",
    "sum_equilibria_report",
    "sum_selections",
    "tell",
    "to_quantifier",
    "trace_effect",
]

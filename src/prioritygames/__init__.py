"""Priority-based congestion games with exact arithmetic.

A library for modeling congestion games where resources rank players and
more prioritized co-users impose (finite or infinite) extra delay, for
computing pure Nash equilibria via layered construction, insertion, and
better-response dynamics, and for certifying every result against
brute-force oracles and exact potential functions.

Names load on first use (PEP 562): ``import prioritygames`` runs no
submodule, and ``prioritygames.solve_insertion`` imports ``dynamics`` (and
what it imports) the first time it is read.  Submodules resolve the same
way, so ``prioritygames.dynamics.POLICIES`` needs no import of its own.
"""

import importlib

# each submodule and the public names it exports here
_EXPORTS = {
    "cli": (),
    "congestion": (
        "CongestionView", "State", "best_response", "congestion_view", "entry_weights",
        "has_better_response", "is_pure_nash", "player_cost", "profile", "validate_state",
    ),
    "core": (
        "AffineDelay", "ClassicDelay", "DelaySpec", "Game", "PerPlayerDelay", "PriorityFunction",
        "TableDelay", "build_game", "evaluate_delay", "required_table_bound",
        "table_from_function", "validate_delay_properties",
    ),
    "costs": ("INFINITY", "ZERO", "ExtCost", "cost", "sum_costs"),
    "dynamics": (
        "MoveTrace", "StepStats", "TraceStep", "count_steps", "run_dynamics",
        "solve_consistent_layered", "solve_insertion",
    ),
    "errors": (
        "BudgetExceededError", "GameError", "InconsistentPrioritiesError",
        "InvariantViolatedError", "LayerCapExhaustedError", "LengthMismatchError",
        "NoExchangeError", "NonMonotoneDelayError", "NotImprovingError", "NotSingletonError",
        "OutOfBoundError", "ParseError", "PlayerNotPlacedError", "PlayerSpecificInputError",
        "ShapeMismatchError", "ValidationFailed", "Violation",
    ),
    "generator": ("GenParams", "generate_random_instance"),
    "jsonio": ("emit_instance", "instance_to_document", "parse_instance"),
    "markets": (
        "AffineGame", "ClassicGame", "MarketGame", "TriTable", "affine_player_cost",
        "build_affine_game", "build_classic_game", "build_market", "classic_player_cost",
        "market_is_pure_nash", "market_player_cost", "reduce_affine_to_priority",
        "reduce_classic_to_priority", "reduce_market_to_playerspecific",
        "reduce_priority_to_market", "tritable_from_function",
    ),
    "matroids": (
        "ExplicitBasesSpace", "ExplicitSpace", "GraphicMatroid", "PartitionMatroid",
        "SingletonSpace", "StrategySpace", "UniformMatroid", "greedy_min_base", "lazy_path",
    ),
    "oracle": (
        "CertifyReport", "EnumerationBudget", "brute_force_pne", "certify_trace",
        "enumerate_profiles",
    ),
    "potentials": (
        "EQUAL", "GREATER", "LESS", "InsertionPotentialValue", "LexVector", "ScalarPotential",
        "insertion_potential", "insertion_potential_compare", "level_potential", "lex_compare",
        "lex_potential_singleton", "market_lex_potential", "tol_value",
    ),
    "traceio": ("read_trace_csv", "trace_to_csv_text", "write_trace_csv"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})

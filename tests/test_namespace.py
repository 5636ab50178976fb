"""The package namespace: a pinned set of public names, each loaded on first use.

Each check that depends on what is already imported runs in a fresh
interpreter, where no other test has loaded a submodule.
"""

import json
import subprocess
import sys

import pytest

import prioritygames as pg
from test_cli import _src_env

# every public name, by the submodule that defines it
PUBLIC = {
    "congestion": "CongestionView State best_response congestion_view entry_weights"
    " has_better_response is_pure_nash player_cost profile validate_state",
    "core": "AffineDelay ClassicDelay DelaySpec Game PerPlayerDelay PriorityFunction TableDelay"
    " build_game evaluate_delay required_table_bound table_from_function"
    " validate_delay_properties",
    "costs": "INFINITY ZERO ExtCost cost sum_costs",
    "dynamics": "MoveTrace StepStats TraceStep count_steps run_dynamics"
    " solve_consistent_layered solve_insertion",
    "errors": "BudgetExceededError GameError InconsistentPrioritiesError InvariantViolatedError"
    " LayerCapExhaustedError LengthMismatchError NoExchangeError NonMonotoneDelayError"
    " NotImprovingError NotSingletonError OutOfBoundError ParseError PlayerNotPlacedError"
    " PlayerSpecificInputError ShapeMismatchError ValidationFailed Violation",
    "generator": "GenParams generate_random_instance",
    "jsonio": "emit_instance instance_to_document parse_instance",
    "markets": "AffineGame ClassicGame MarketGame TriTable affine_player_cost build_affine_game"
    " build_classic_game build_market classic_player_cost market_is_pure_nash"
    " market_player_cost reduce_affine_to_priority reduce_classic_to_priority"
    " reduce_market_to_playerspecific reduce_priority_to_market tritable_from_function",
    "matroids": "ExplicitBasesSpace ExplicitSpace GraphicMatroid PartitionMatroid SingletonSpace"
    " StrategySpace UniformMatroid greedy_min_base lazy_path",
    "oracle": "CertifyReport EnumerationBudget brute_force_pne certify_trace enumerate_profiles",
    "potentials": "EQUAL GREATER LESS InsertionPotentialValue LexVector ScalarPotential"
    " insertion_potential insertion_potential_compare level_potential lex_compare"
    " lex_potential_singleton market_lex_potential tol_value",
    "traceio": "read_trace_csv trace_to_csv_text write_trace_csv",
}
OWNER = {name: module for module, names in PUBLIC.items() for name in names.split()}


def _fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON its last line prints."""
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(OWNER)],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_all_is_the_pinned_names():
    assert len(OWNER) == 102
    got = _fresh("import json; import prioritygames as pg; print(json.dumps(pg.__all__))")
    assert got == sorted(OWNER)


def test_each_name_is_its_submodules_object():
    loaded, wrong = _fresh(
        "import importlib, json, sys\n"
        "import prioritygames as pg\n"
        "loaded = [m for m in sys.modules if m.startswith('prioritygames.')]\n"
        "owner = json.loads(sys.argv[1])\n"
        "wrong = [n for n, m in owner.items()\n"
        "         if getattr(pg, n) is not getattr(importlib.import_module('prioritygames.' + m), n)]\n"
        "print(json.dumps([loaded, wrong]))"
    )
    assert loaded == []  # the bare import runs no submodule
    assert wrong == []


def test_submodule_attribute_loads_it():
    assert _fresh(
        "import json, sys\n"
        "import prioritygames as pg\n"
        "print(json.dumps(['prioritygames.dynamics' in sys.modules, pg.dynamics.POLICIES]))"
    ) == [False, ["roundrobin", "first", "best"]]


def test_star_import_binds_every_name():
    assert _fresh(
        "import json, sys\n"
        "from prioritygames import *\n"
        "print(json.dumps([n for n in json.loads(sys.argv[1]) if n not in globals()]))"
    ) == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pg.no_such_name
    assert set(OWNER) <= set(dir(pg))

"""Solver invariants are real checks, and each trace row's potential is built once."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prioritygames as pg
from conftest import gen_game
from test_trace_digests import BR_GAMES, LAYERED_GAMES
from prioritygames import congestion, dynamics, oracle, potentials
from prioritygames.cli import cli_main
from prioritygames.jsonio import emit_instance

PACKAGE_DIR = Path(pg.__file__).parent
REBALANCE_FIXTURE = Path(__file__).parent / "data" / "rebalance_n6.json"


def _package_nodes(match) -> list[str]:
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if match(n)]
    return found


def test_no_assert_in_package():
    """Invariants raise typed errors, so ``python -O`` cannot strip them."""
    assert _package_nodes(lambda n: isinstance(n, ast.Assert)) == []


def _raises_runtime_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "RuntimeError"


def test_no_runtime_error_in_package():
    """Solver invariants fail as a ``GameError``, which the CLI maps to exit 1."""
    assert _package_nodes(_raises_runtime_error) == []


# Run in a child interpreter started with -O: seeded insertion (with
# discards on seeds 0 and 3, and the rebalance fixture), layered and
# better-response runs, each certified by replay.
OPTIMIZED_SWEEP = """
import json
import sys
import prioritygames as pg
from prioritygames.generator import GenParams, generate_random_instance
from prioritygames.jsonio import document_to_source

def game(seed, **kw):
    src = document_to_source(generate_random_instance(GenParams(**kw), seed))
    return pg.reduce_affine_to_priority(src) if isinstance(src, pg.AffineGame) else src

g = pg.parse_instance(open(sys.argv[1], "rb").read())
reports = [("insertion", pg.solve_insertion(g)[1], g)]
for seed in range(4):
    g = game(seed, players=7, resources=3, levels=3)
    reports.append(("insertion", pg.solve_insertion(g)[1], g))
    g = game(seed, players=6, resources=3, space_kind="uniform", levels=2, consistent=True)
    reports.append(("layered", pg.solve_consistent_layered(g)[1], g))
    g = game(seed, players=5, resources=3, model="affine", space_kind="mixed")
    start = pg.State({p: g.spaces[p].all_bases()[0] for p in g.players()})
    reports.append(("br", pg.run_dynamics(g, start)[1], g))
print(json.dumps({
    "debug": __debug__,
    "reports": [[m, pg.certify_trace(g, t).ok] for m, t, g in reports],
}))
"""


def test_solvers_certify_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    child = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SWEEP, str(REBALANCE_FIXTURE)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["debug"] is False
    assert len(result["reports"]) == 13
    assert {m for m, _ in result["reports"]} == {"insertion", "layered", "br"}
    assert all(ok for _, ok in result["reports"]), result["reports"]


def test_invariant_error_is_a_game_error():
    assert issubclass(pg.InvariantViolatedError, pg.GameError)
    assert pg.InvariantViolatedError.code == "INVARIANT_VIOLATED"


def count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def singleton_game():
    """Per-resource priorities, shared delays; insertion discards 3 times."""
    game = gen_game(7, players=7, resources=3, space_kind="singleton", levels=3)
    assert game.is_singleton_game() and not game.player_specific
    return game


@pytest.fixture
def layered_game():
    """Consistent priorities, shared delays, two levels with layer moves."""
    game = gen_game(10, players=8, resources=4, space_kind="uniform", levels=2, consistent=True)
    assert game.priorities.consistent and not game.player_specific
    return game


def test_insertion_potential_once_per_row(monkeypatch, singleton_game):
    solver_calls = count_calls(monkeypatch, dynamics, "insertion_potential")
    solver_tols = count_calls(monkeypatch, dynamics, "tol_value")
    _, trace = pg.solve_insertion(singleton_game)
    stats = pg.count_steps(trace)
    assert stats.by_phase.get("discard", 0) > 0 and stats.rounds < stats.total
    # the empty start only: later rows refresh just the touched tolerances
    assert len(solver_calls) == 1

    certify_calls = count_calls(monkeypatch, oracle, "insertion_potential")
    certify_tols = count_calls(monkeypatch, potentials, "tol_value")
    assert pg.certify_trace(singleton_game, trace).ok
    assert len(certify_calls) == len(trace.steps) + 1  # plus the empty start
    assert len(solver_tols) < len(certify_tols)


def test_level_potential_once_per_row(monkeypatch, layered_game):
    solver_calls = count_calls(monkeypatch, dynamics, "level_potential")
    _, trace = pg.solve_consistent_layered(layered_game)
    assert pg.count_steps(trace).moves > 0
    assert len({s.phase for s in trace.steps}) == 2
    assert len(solver_calls) == len(trace.steps)

    certify_calls = count_calls(monkeypatch, oracle, "level_potential")
    assert pg.certify_trace(layered_game, trace).ok
    assert len(certify_calls) == len(trace.steps)  # no start evaluation


def test_lex_potential_once_per_row_in_certify(monkeypatch, singleton_game):
    start = pg.State({p: singleton_game.spaces[p].all_bases()[0] for p in singleton_game.players()})
    _, trace = pg.run_dynamics(singleton_game, start)
    assert trace.steps and trace.status == "Converged"

    certify_calls = count_calls(monkeypatch, oracle, "lex_potential_singleton")
    assert pg.certify_trace(singleton_game, trace).ok
    assert len(certify_calls) == len(trace.steps) + 1  # plus the full start


def count_level_counts(monkeypatch) -> list:
    """Count ``level_counts`` calls from every package module importing it."""
    calls = []
    original = congestion.level_counts

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    holders = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("prioritygames.") and getattr(module, "level_counts", None) is original
    ]
    assert congestion in holders
    for module in holders:
        monkeypatch.setattr(module, "level_counts", counted)
    return calls


@pytest.mark.parametrize("source", ["fixture", "rebalance"])
def test_certify_builds_one_count_table_per_row(monkeypatch, singleton_game, source):
    """Costs, potential and incentive scan of a replayed row share one table."""
    game = singleton_game
    if source == "rebalance":
        game = pg.parse_instance(REBALANCE_FIXTURE.read_bytes())
    _, trace = pg.solve_insertion(game)
    calls = count_level_counts(monkeypatch)
    assert pg.certify_trace(game, trace).ok
    # one per row, plus the start and the final equilibrium check
    assert len(calls) <= len(trace.steps) + 3


@pytest.mark.parametrize("policy", pg.dynamics.POLICIES)
def test_run_dynamics_builds_one_count_table_per_row(monkeypatch, policy):
    """Every scan, row cost and lex snapshot of a state shares one table."""
    seed, kw = BR_GAMES["singleton"]
    game = gen_game(seed, **kw)
    start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    calls = count_level_counts(monkeypatch)
    _, trace = pg.run_dynamics(game, start, policy=policy)
    assert trace.steps and trace.status == "Converged"
    # one for the start and one per row, never one per player scanned
    assert len(calls) <= len(trace.steps) + 2


def test_layered_builds_one_count_table_per_row(monkeypatch):
    seed, kw = LAYERED_GAMES["explicit"]
    game = gen_game(seed, **kw)
    calls = count_level_counts(monkeypatch)
    _, trace = pg.solve_consistent_layered(game)
    levels = {s.phase for s in trace.steps}
    assert pg.count_steps(trace).moves > 0 and len(levels) > 1
    # one per row, one per layer's frozen outer state, and one to spare
    assert len(calls) <= len(trace.steps) + len(levels) + 1


@pytest.mark.parametrize("source", ["fixture", "rebalance"])
def test_insertion_builds_one_count_table_per_row(monkeypatch, singleton_game, source):
    """Placement, incentive checks, tolerances and rows of a state share one table."""
    game = singleton_game
    if source == "rebalance":
        game = pg.parse_instance(REBALANCE_FIXTURE.read_bytes())
    calls = count_level_counts(monkeypatch)
    _, trace = pg.solve_insertion(game)
    assert trace.status == "Converged"
    # one per row, plus the empty start and one to spare
    assert len(calls) <= len(trace.steps) + 2


def test_tally_keys_its_table_by_state_identity(monkeypatch, singleton_game):
    game = singleton_game
    strategies = {p: game.spaces[p].all_bases()[0] for p in game.players()}
    first, twin = pg.State(strategies), pg.State(strategies)
    assert first == twin and first is not twin
    calls = count_level_counts(monkeypatch)
    table = congestion.tally(game, first)
    assert congestion.tally(game, first) is table
    assert len(calls) == 1
    # an equal but distinct state is counted afresh, to the same table
    again = congestion.tally(game, twin)
    assert len(calls) == 2 and again is not table and again == table


def test_failed_count_leaves_the_tally_slot_unchanged(monkeypatch, singleton_game):
    game = singleton_game
    state = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    table = congestion.tally(game, state)
    kept = game._tally
    with pytest.raises(KeyError):  # player 99 has no priority anywhere
        congestion.tally(game, pg.State({99: game.resources[0]}))
    assert game._tally is kept
    calls = count_level_counts(monkeypatch)
    assert congestion.tally(game, state) is table and not calls


def test_entry_weights_are_priced_once_per_state_object(singleton_game):
    game = singleton_game
    strategies = {p: game.spaces[p].all_bases()[0] for p in game.players()}
    first, twin = pg.State(strategies), pg.State(strategies)
    weights = congestion.entry_weights(game, first, 1)
    assert congestion.entry_weights(game, first, 1) is weights
    # an equal but distinct state is priced afresh, to the same weights
    again = congestion.entry_weights(game, twin, 1)
    assert again is not weights and again == weights


def test_failed_probe_stores_no_weights(monkeypatch, singleton_game):
    game = singleton_game
    state = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    *probed, failing = sorted(game.ground_of(1))
    assert probed  # the failure comes after some probes succeeded
    delay = pg.Game.delay

    def probe(self, player, resource, x, y):
        if resource == failing:
            raise pg.OutOfBoundError(f"no delay at {resource}")
        return delay(self, player, resource, x, y)

    monkeypatch.setattr(pg.Game, "delay", probe)
    with pytest.raises(pg.OutOfBoundError):
        congestion.entry_weights(game, state, 1)
    assert game._tally[0] is state and 1 not in game._tally[2]
    monkeypatch.setattr(pg.Game, "delay", delay)
    weights = congestion.entry_weights(game, state, 1)
    assert weights == congestion.entry_weights(game, pg.State(dict(state.items())), 1)
    assert sorted(weights) == sorted(game.ground_of(1))


def test_insertion_safety_cap_is_a_typed_error(monkeypatch, tmp_path, capsys):
    """A solver stuck past the cap exits 1 through the CLI, not with a traceback."""
    game = pg.build_game(
        n_players=2,
        resources=["r"],
        spaces={1: pg.SingletonSpace(["r"]), 2: pg.SingletonSpace(["r"])},
        priorities=pg.PriorityFunction({"r": {1: 1, 2: 2}}),
        delays={"r": pg.AffineDelay(alpha=Fraction(1), beta=Fraction(1))},
    )
    path = tmp_path / "stuck.json"
    path.write_bytes(emit_instance(game))
    # every placed player is then a stray: each round ends with the board empty
    monkeypatch.setattr(dynamics, "has_better_response", lambda *args: True)
    with pytest.raises(pg.InvariantViolatedError, match="safety cap of 1048 rounds"):
        pg.solve_insertion(game)

    capsys.readouterr()
    assert cli_main(["solve", str(path), "--method", "insertion", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "INVARIANT_VIOLATED"

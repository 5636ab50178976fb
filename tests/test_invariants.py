"""Solver invariants are real checks, and each trace row's potential is built once."""

import ast
from pathlib import Path

import pytest

import prioritygames as pg
from conftest import gen_game
from prioritygames import dynamics, oracle

PACKAGE_DIR = Path(pg.__file__).parent


def test_no_assert_in_package():
    """Invariants raise typed errors, so ``python -O`` cannot strip them."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


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
    _, trace = pg.solve_insertion(singleton_game)
    stats = pg.count_steps(trace)
    assert stats.by_phase.get("discard", 0) > 0 and stats.rounds < stats.total
    assert len(solver_calls) == len(trace.steps) + 1  # plus the empty start

    certify_calls = count_calls(monkeypatch, oracle, "insertion_potential")
    assert pg.certify_trace(singleton_game, trace).ok
    assert len(certify_calls) == len(trace.steps) + 1  # plus the empty start


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

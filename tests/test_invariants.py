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
from test_trace_digests import BR_GAMES, LAYERED_GAMES, make_affine_n24
from prioritygames import congestion, core, dynamics, oracle, potentials
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
    run_calls = count_calls(monkeypatch, potentials, "insertion_potential")
    tolerances = count_calls(monkeypatch, potentials, "tolerance")
    _, trace = pg.solve_insertion(singleton_game)
    stats = pg.count_steps(trace)
    assert stats.by_phase.get("discard", 0) > 0 and stats.rounds < stats.total
    # the run prices its records itself, the empty start's included
    assert run_calls == []
    solver_tols = len(tolerances)

    certify_calls = count_calls(monkeypatch, oracle, "insertion_potential")
    priced: list[list[int]] = []  # per read of certify's run, the players it prices
    row: list[list[int]] = []  # the read under way, while it is

    def reading(run, state, mover=None, original=potentials.InsertionRun.at):
        row.append([])
        value = original(run, state, mover)
        priced.append(row.pop())
        return value

    def pricing(game, state, p, original=potentials.tolerance):
        if row:  # not the final fresh check
            row[-1].append(p)
        return original(game, state, p)

    monkeypatch.setattr(potentials.InsertionRun, "at", reading)
    monkeypatch.setattr(potentials, "tolerance", pricing)
    assert pg.certify_trace(singleton_game, trace).ok
    # only the fresh check of the final state: no row rebuilds it
    assert run_calls == [] and len(certify_calls) == 1
    # the empty start and the final state, read again by the final check, price nobody
    assert len(priced) == len(trace.steps) + 2 and priced[0] == priced[-1] == []
    game = singleton_game
    for step, players in zip(trace.steps, priced[1:]):
        changed = (step.frm or frozenset()) ^ (step.to or frozenset())
        affected = {step.player} | {
            p
            for r in changed
            for p in game.players()
            if r in game.ground_of(p) and game.priority(r, p) >= game.priority(r, step.player)
        }
        assert len(players) == len(set(players)) and set(players) <= affected
    assert sum(map(len, priced)) <= solver_tols


def test_level_potential_once_per_row(monkeypatch, layered_game):
    """No row evaluates the level potential afresh: each layer's
    ``LevelRun`` re-derives at most two terms per move row, and certify's
    one fresh ``level_potential`` is its final check."""
    fresh_calls = count_calls(monkeypatch, potentials, "level_potential")
    _, trace = pg.solve_consistent_layered(layered_game)
    assert pg.count_steps(trace).moves > 0
    assert len({s.phase for s in trace.steps}) == 2
    assert fresh_calls == []

    certify_calls = count_calls(monkeypatch, oracle, "level_potential")
    derived: list[list[str]] = [[]]  # per stretch of the replay, the terms derived

    def stepping(*args, original=oracle.step_state):
        derived.append([])
        return original(*args)

    def checking(*args, original=oracle._check_replay):
        derived.append([])
        return original(*args)

    def deriving(run, rid, row, original=potentials.LevelRun._rederive):
        derived[-1].append(rid)
        return original(run, rid, row)

    monkeypatch.setattr(oracle, "step_state", stepping)
    monkeypatch.setattr(oracle, "_check_replay", checking)
    monkeypatch.setattr(potentials.LevelRun, "_rederive", deriving)
    assert pg.certify_trace(layered_game, trace).ok
    assert len(certify_calls) == 1 and fresh_calls == []
    assert len(derived) == len(trace.steps) + 2
    _, *rows, _ = derived
    moves = [(step, rids) for step, rids in zip(trace.steps, rows) if step.frm is not None]
    assert moves
    for step, rids in moves:
        assert len(rids) <= 2 and set(rids) <= step.frm ^ step.to


def test_lex_potential_once_per_row_in_certify(monkeypatch, singleton_game):
    start = pg.State({p: singleton_game.spaces[p].all_bases()[0] for p in singleton_game.players()})
    _, trace = pg.run_dynamics(singleton_game, start)
    assert trace.steps and trace.status == "Converged"

    certify_calls = count_calls(monkeypatch, oracle, "lex_potential_singleton")
    derived: list[list[str]] = [[]]  # per stretch of the replay, the blocks derived

    def stepping(*args, original=oracle.step_state):
        derived.append([])
        return original(*args)

    def checking(*args, original=oracle._check_replay):
        derived.append([])
        return original(*args)

    def deriving(game, rid, row, original=potentials._delay_block):
        derived[-1].append(rid)
        return original(game, rid, row)

    monkeypatch.setattr(oracle, "step_state", stepping)
    monkeypatch.setattr(oracle, "_check_replay", checking)
    monkeypatch.setattr(potentials, "_delay_block", deriving)
    assert pg.certify_trace(singleton_game, trace).ok
    # the fresh check of the final state: neither the start nor a row rebuilds it
    assert len(certify_calls) == 1
    assert len(derived) == len(trace.steps) + 2
    start, *rows, final = derived
    assert sorted(start) == sorted(congestion.level_counts(singleton_game, trace.start))
    assert sorted(final) == sorted(singleton_game.resources)
    for step, rids in zip(trace.steps, rows):
        assert len(rids) == len(set(rids)) and set(rids) <= step.frm ^ step.to


def test_lex_potential_sorts_without_cost_comparisons(monkeypatch):
    """The pair sort and the block checks compare integer keys, never ``ExtCost``s."""
    game = make_affine_n24()
    start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    final, _ = pg.run_dynamics(game, start, policy="roundrobin")
    calls = []
    for name in ("__lt__", "__le__", "__eq__"):
        original = getattr(pg.ExtCost, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(pg.ExtCost, name, counted)
    vec = pg.lex_potential_singleton(game, pg.State(dict(final.items())))
    assert calls == []
    monkeypatch.undo()
    assert len(vec.pairs) == 24 and list(vec.pairs) == sorted(vec.pairs)
    assert len({c for c, _ in vec.pairs}) < 24  # some costs repeat, so levels order ties


def test_best_response_compares_no_fractions(monkeypatch):
    """Costs compare on the ints they keep: one best response on a fresh
    game (pricing, the greedy sort and the final test) calls no ``Fraction``
    comparison."""
    game = make_affine_n24()
    start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    calls = []
    for name in ("__lt__", "__le__", "__eq__"):
        original = getattr(Fraction, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    br = dynamics.best_response(game, start, 1)
    monkeypatch.undo()
    assert calls == []
    assert br != start.strategy(1)  # she improves: real costs were compared


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
    with pytest.raises(KeyError):  # player 99 has no priority anywhere
        congestion.tally(game, pg.State({99: game.resources[0]}))
    calls = count_level_counts(monkeypatch)
    assert congestion.tally(game, state) is table and not calls


def test_entry_weights_are_a_function_of_the_state(singleton_game):
    game = singleton_game
    strategies = {p: game.spaces[p].all_bases()[0] for p in game.players()}
    first, twin = pg.State(strategies), pg.State(strategies)
    weights = congestion.entry_weights(game, first, 1)
    # priced afresh on every call, the same object's and an equal state's alike
    assert congestion.entry_weights(game, first, 1) == weights
    assert congestion.entry_weights(game, twin, 1) == weights


def test_failed_probe_raises_on_every_call(monkeypatch, singleton_game):
    game = singleton_game
    state = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    *probed, failing = sorted(game.ground_of(1))
    assert probed  # the failure comes after some probes succeeded
    spec = game.delays[failing]
    assert all(game.delays[r] is not spec for r in probed)
    evaluate = core.evaluate_delay

    def probe(at, x, y, player=None):
        if at is spec:
            raise pg.OutOfBoundError(f"no delay at {failing}")
        return evaluate(at, x, y, player)

    monkeypatch.setattr(core, "evaluate_delay", probe)
    for _ in range(2):
        with pytest.raises(pg.OutOfBoundError):
            congestion.entry_weights(game, state, 1)
    assert game.points(failing) == {}
    monkeypatch.setattr(core, "evaluate_delay", evaluate)
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
    tolerance = potentials.tolerance
    monkeypatch.setattr(
        potentials, "tolerance", lambda *args: tolerance(*args)._replace(improvable=True)
    )
    with pytest.raises(pg.InvariantViolatedError, match="safety cap of 1048 rounds"):
        pg.solve_insertion(game)

    capsys.readouterr()
    assert cli_main(["solve", str(path), "--method", "insertion", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "INVARIANT_VIOLATED"

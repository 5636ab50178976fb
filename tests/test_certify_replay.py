"""Certify replays insertion runs by deltas, and the deltas are checked.

``certify_trace`` steps its own count table from row to row, and its own
``potentials.InsertionRun`` re-prices only the tolerance records a changed
row can change (``InsertionRun._rederive``).  These tests hold that replay
against a potential column built with no deltas at all, show that a
narrower re-pricing rule is caught, and show that the replay never starts
from a table kept in the game's tally slot.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import prioritygames as pg
from conftest import gen_game
from test_certify_corpus import GAMES
from test_trace_digests import make_affine_n24
from prioritygames import congestion, oracle, potentials

REBALANCE_FIXTURE = Path(__file__).parent / "data" / "rebalance_n6.json"


def per_resource_affine(n: int, m: int) -> pg.Game:
    """n singleton players on m shared affine resources, per-resource levels 1..3."""
    rng = random.Random(f"replay:affine:{n}:{m}")
    rids = [f"r{k}" for k in range(m)]
    doc = {
        "version": 1,
        "model": "priority",
        "players": n,
        "resources": rids,
        "strategies": {
            str(i): {"kind": "singleton", "allowed": sorted(rng.sample(rids, rng.randint(2, 4)))}
            for i in range(1, n + 1)
        },
        "priorities": {
            "per_resource": {rid: [rng.randint(1, 3) for _ in range(n)] for rid in rids}
        },
        "delays": {
            rid: {
                "kind": "affine",
                "alpha": f"{rng.randint(1, 6)}/2",
                "beta": f"{rng.randint(0, 4)}/1",
            }
            for rid in rids
        },
    }
    return pg.parse_instance(json.dumps(doc))


def insertion_games() -> dict[str, pg.Game]:
    games = {
        name: gen_game(seed, **kw)
        for name, (seed, kw) in GAMES.items()
        if name.startswith("singleton")
    }
    games["rebalance-n6"] = pg.parse_instance(REBALANCE_FIXTURE.read_bytes())
    games["affine-n24"] = make_affine_n24()
    games["affine-n40"] = per_resource_affine(40, 8)
    return games


GAMES_BY_NAME = insertion_games()


def fresh_column(game: pg.Game, trace: pg.MoveTrace) -> pg.MoveTrace:
    """The trace with every row's potential from a fresh ``insertion_potential``
    of a freshly built ``State``: no solver bookkeeping and no certify deltas."""
    strategies = dict(trace.start.items())
    steps = []
    for step in trace.steps:
        if step.to is None:
            strategies.pop(step.player, None)
        else:
            strategies[step.player] = step.to
        value = pg.insertion_potential(game, pg.State(dict(strategies)))
        steps.append(replace(step, potential=value.canonical()))
    return replace(trace, steps=steps)


def solved(name: str) -> tuple[pg.Game, pg.MoveTrace]:
    game = GAMES_BY_NAME[name]
    _, trace = pg.solve_insertion(game)
    return game, fresh_column(game, trace)


def caught(game: pg.Game, trace: pg.MoveTrace) -> bool:
    """Whether certify reports the replay's potential or incentives as wrong."""
    try:
        report = pg.certify_trace(game, trace)
    except pg.InvariantViolatedError:
        return True
    return any(v.code in ("POTENTIAL_MISMATCH", "INCENTIVE_BROKEN") for v in report.violations)


@pytest.mark.parametrize("name", sorted(GAMES_BY_NAME))
def test_stepped_replay_matches_fresh_potentials(name):
    game, trace = solved(name)
    assert trace.steps and all(s.potential for s in trace.steps)
    report = pg.certify_trace(game, trace)
    assert report.ok, report.summary()


def only_the_placed(run, rid, row):
    """Re-prices only the players placed on the changed resource (a row's
    mover is re-priced anyway, as a player whose strategy changed)."""
    state = run._state
    run._queued.update(p for p, _ in run.reach[rid] if state.covers(p) and rid in state.strategy(p))
    run._rows[rid], run.value = row, None


def strictly_below(run, rid, row):
    """Leaves out the players at the lowest changed level of the changed row."""
    kept, new = run._rows[rid] or {}, row or {}
    q = min(k for k in kept.keys() | new.keys() if kept.get(k) != new.get(k))
    run._queued.update(p for p, level in run.reach[rid] if level > q)
    run._rows[rid], run.value = row, None


@pytest.mark.parametrize("narrow", [only_the_placed, strictly_below])
def test_a_narrower_repricing_rule_is_caught(monkeypatch, narrow):
    runs = {name: solved(name) for name in ("affine-n24", "affine-n40", "rebalance-n6")}
    monkeypatch.setattr(potentials.InsertionRun, "_rederive", narrow)
    for name, (game, trace) in runs.items():
        assert caught(game, trace), name


@pytest.mark.parametrize("narrow", [only_the_placed, strictly_below])
def test_a_slip_shared_by_solver_and_certify_is_caught(monkeypatch, narrow):
    """One narrowed re-pricing rule, in force for the solver's run and
    certify's alike, leaves the row-by-row comparison nothing to see;
    certify's final fresh check raises."""
    monkeypatch.setattr(potentials.InsertionRun, "_rederive", narrow)
    for name in ("affine-n24", "affine-n40", "rebalance-n6"):
        game = GAMES_BY_NAME[name]
        _, trace = pg.solve_insertion(game)
        with pytest.raises(pg.InvariantViolatedError, match="running insertion potential"):
            pg.certify_trace(game, trace)


def test_final_check_catches_a_drifting_ledger(monkeypatch):
    """With the recorded potentials blanked, only the final fresh check is left."""
    game, trace = solved("affine-n40")
    blank = replace(trace, steps=[replace(s, potential="") for s in trace.steps])
    assert pg.certify_trace(game, blank).ok
    monkeypatch.setattr(potentials.InsertionRun, "_rederive", strictly_below)
    with pytest.raises(pg.InvariantViolatedError):
        pg.certify_trace(game, blank)


def test_replay_ignores_a_table_kept_in_the_tally_slot():
    """A wrong table kept for the trace's own start object is never read."""
    for name in ("affine-n24", "rebalance-n6"):
        game = GAMES_BY_NAME[name]
        _, trace = pg.solve_insertion(game)
        clean = pg.certify_trace(game, trace).violations
        wrong = congestion.tally(game, trace.start)  # the slot's own table, made wrong
        wrong.update({r: {1: 99} for r in game.resources})
        assert congestion.tally(game, trace.start) is wrong
        assert pg.certify_trace(game, trace).violations == clean == []


def test_replay_ignores_a_wrong_start_table_on_a_corrupted_trace():
    game = GAMES_BY_NAME["affine-n24"]
    _, trace = pg.solve_insertion(game)
    broken = replace(trace, steps=trace.steps[:5] + trace.steps[6:])
    clean = pg.certify_trace(game, broken).violations
    assert clean
    congestion.tally(game, broken.start).update({"a": {1: 7}})
    assert pg.certify_trace(game, broken).violations == clean


def test_final_check_catches_a_wrong_stepped_table(monkeypatch):
    """The fresh count of the final state checks the stepped table on every rule."""
    game = make_affine_n24()
    start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    _, trace = pg.run_dynamics(game, start)
    assert trace.steps and pg.certify_trace(game, trace).ok

    def phantom(game, state, player, strategy, original=oracle.step_state):
        """Steps the table, plus a count on a resource outside the game,
        which no cost or potential reads."""
        new = original(game, state, player, strategy)
        congestion.tally(game, new)["zz"] = {1: 1}  # the derived table, in place
        return new

    monkeypatch.setattr(oracle, "step_state", phantom)
    with pytest.raises(pg.InvariantViolatedError, match="stepped count table"):
        pg.certify_trace(game, trace)

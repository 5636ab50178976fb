"""Each game builds a delay point once, and the point is the pure function's value.

Each delay's point table (``Game.points``) stores what ``evaluate_delay``
returns at each point it is asked for.  These tests check the stored values
against fresh evaluations on every generator class, check that failed
probes are never stored, pin that a full solve and certify on a fixed
instance evaluates no point twice, and show that every solver and certify
path on every generator class evaluates a delay only to fill a table.
"""

from collections import Counter
from fractions import Fraction

import pytest

import prioritygames as pg
from conftest import gen_source
from prioritygames import core
from prioritygames.core import PerPlayerDelay, domain_points, evaluate_delay
from prioritygames.dynamics import CONVERGED, POLICIES
from test_kernel import CLASSES, priority_game
from test_trace_digests import make_affine_n24


def _probe(game, player, rid, x, y):
    """The game's answer at a point: a value, or the error type it raised."""
    try:
        return game.points(rid, player)[x, y]
    except pg.OutOfBoundError as exc:
        return type(exc)


def _fresh(spec, x, y, player):
    try:
        return evaluate_delay(spec, x, y, player)
    except pg.OutOfBoundError as exc:
        return type(exc)


@pytest.mark.parametrize("model,space,consistent,specific", CLASSES)
def test_memo_matches_fresh_evaluation_everywhere(model, space, consistent, specific):
    infinite = 0
    for seed in range(3):
        game = priority_game(
            gen_source(
                seed,
                players=3 + seed,
                resources=2 + seed % 2,
                model=model,
                space_kind=space,
                levels=2,
                consistent=consistent,
                player_specific=specific,
            )
        )
        # one past the bound in each direction reaches the out-of-table points
        points = list(domain_points(game.required_bound() + 1))
        for rid in game.resources:
            spec = game.delays[rid]
            players = sorted(spec.specs) if isinstance(spec, PerPlayerDelay) else [None, 1]
            for player in players:
                for x, y in points:
                    fresh = _fresh(spec, x, y, player)
                    first = _probe(game, player, rid, x, y)
                    assert first == fresh
                    # the second call returns the stored object, or raises again
                    assert _probe(game, player, rid, x, y) is first
                    if fresh is pg.OutOfBoundError:
                        assert (x, y) not in game.points(rid, player)
                    else:
                        infinite += not fresh.is_finite
    if model == "classic":
        assert infinite > 0  # the wraps' +infinity went through the memo


def test_player_enters_the_key_only_for_player_specific_specs():
    game = priority_game(gen_source(0, players=3, resources=2, player_specific=True))
    rid = game.resources[0]
    one, two = game.points(rid, 1), game.points(rid, 2)
    assert one is not two
    assert one.spec is game.delays[rid].for_player(1) and two.spec is game.delays[rid].for_player(2)
    one[0, 1]
    two[0, 1]
    assert game.points(rid, 1) is one and list(one) == list(two) == [(0, 1)]
    with pytest.raises(TypeError):
        game.points(rid)

    shared = priority_game(gen_source(0, players=3, resources=2))
    table = shared.points(rid)
    assert shared.points(rid, 1) is table and shared.points(rid, 2) is table
    assert table.spec is shared.delays[rid]
    first = shared.points(rid, 1)[0, 1]
    assert shared.points(rid, 2)[0, 1] is first and shared.points(rid)[0, 1] is first
    assert list(table) == [(0, 1)]


@pytest.mark.parametrize(
    "spec,x,y",
    [
        (pg.table_from_function(lambda x, y: x + y, 4), 2, 3),  # outside the table
        (pg.table_from_function(lambda x, y: x + y, 4), 0, 0),  # outside the domain
        (pg.AffineDelay(alpha=Fraction(1), beta=Fraction(0)), -1, 1),
        (pg.ClassicDelay(values=(pg.cost(1), pg.cost(2))), 0, 3),  # past the values
    ],
)
def test_failed_probes_raise_every_time_and_are_not_stored(spec, x, y):
    game = pg.build_game(
        n_players=2,
        resources=["a"],
        spaces={1: pg.SingletonSpace(["a"]), 2: pg.SingletonSpace(["a"])},
        priorities=pg.PriorityFunction({"a": {1: 1, 2: 1}}),
        delays={"a": spec},
    )
    table = game.points("a")
    for _ in range(2):
        with pytest.raises(pg.OutOfBoundError):
            table[x, y]
        assert table == {}


def test_memo_leaves_game_equality_alone():
    a, b = make_affine_n24(), make_affine_n24()
    a.points("a")[0, 1]
    assert a == b and "_points" not in repr(a)


@pytest.fixture
def evaluations(monkeypatch) -> Counter:
    """Count ``core.evaluate_delay`` calls by (spec, x, y, player) key."""
    calls: Counter = Counter()
    original = core.evaluate_delay

    def counted(spec, x, y, player=None):
        calls[(id(spec), x, y, player if isinstance(spec, PerPlayerDelay) else None)] += 1
        return original(spec, x, y, player)

    monkeypatch.setattr(core, "evaluate_delay", counted)
    return calls


def _br(game):
    start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    return pg.run_dynamics(game, start, policy="roundrobin")


@pytest.mark.parametrize("solve", [pg.solve_insertion, _br], ids=["insertion", "br"])
def test_solve_and_certify_evaluate_each_point_once(evaluations, solve):
    game = make_affine_n24()
    # every resource has its own spec object, so a spec key names one resource
    assert len({id(s) for s in game.delays.values()}) == len(game.resources)
    _, trace = solve(game)
    assert pg.certify_trace(game, trace).ok
    assert evaluations and max(evaluations.values()) == 1
    assert len(evaluations) == sum(len(game.points(r)) for r in game.resources)


@pytest.mark.parametrize("model,space,consistent,specific", CLASSES)
def test_solvers_and_certify_read_the_tables_not_game_delay(
    evaluations, model, space, consistent, specific
):
    """Every pricing path reads the point tables: solving and certifying
    evaluate a delay only to fill a table, and each point once."""
    for seed in range(3):
        game = priority_game(
            gen_source(
                seed,
                players=5 + seed,
                resources=3,
                model=model,
                space_kind=space,
                levels=2,
                consistent=consistent,
                player_specific=specific,
            )
        )
        evaluations.clear()  # building the game validated its delays
        start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
        runs = [pg.run_dynamics(game, start, policy=policy, cap=200) for policy in POLICIES]
        if game.is_singleton_game():
            runs.append(pg.solve_insertion(game))
        if game.priorities.consistent:
            runs.append(pg.solve_consistent_layered(game))
        for final, trace in runs:
            assert trace.status == CONVERGED
            assert pg.certify_trace(game, trace).ok and pg.is_pure_nash(game, final)
        tables = {
            id(t): t for p in game.players() for r in game.ground_of(p) for t in [game.points(r, p)]
        }
        assert evaluations and sum(evaluations.values()) == sum(map(len, tables.values()))

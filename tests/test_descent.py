"""Better-response descent asks only the players a move can have helped.

``dynamics._descend`` keeps every mover's answer, and drops it by the rule
in its docstring.  The reference scan below asks every mover on every pass,
as the descent did before it kept answers.  Both must write the same rows,
field by field, on every generator class, under every policy and inside the
layered construction; the hand-built games pin which players are asked.
The descent steps its states by ``congestion.step_state``, whose derived
count tables must equal a fresh count.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prioritygames as pg
from conftest import gen_source
from prioritygames import congestion, dynamics, potentials
from prioritygames.congestion import best_response, entry_weights, level_counts, validate_state
from prioritygames.costs import improvement
from prioritygames.matroids import base_weight
from prioritygames.traceio import trace_to_csv_text
from test_kernel import priority_game


def reference_descend(game, state, movers, trace, round_no, phase, policy, cap, snapshot):
    """``_descend`` with every mover asked on every pass."""
    rr_idx = 0
    while True:
        mover = best_gain = None
        begin = rr_idx if policy == "roundrobin" else 0
        for off in range(len(movers)):
            p = movers[(begin + off) % len(movers)]
            w = dynamics.entry_weights(game, state, p)
            br = best_response(game, state, p)
            if br == state.strategy(p):
                continue
            if policy != "best":
                mover, target, weights = p, br, w
                rr_idx = (begin + off + 1) % len(movers)
                break
            gain = improvement(base_weight(state.strategy(p), w), base_weight(br, w))
            if best_gain is None or best_gain < gain:
                best_gain, mover, target, weights = gain, p, br, w
        if mover is None:
            return state, round_no, dynamics.CONVERGED
        if len(trace.steps) >= cap:
            return state, round_no, dynamics.CAP_REACHED
        for nxt in dynamics._decompose_move(game, state, mover, target, weights):
            if len(trace.steps) >= cap:
                return state, round_no + 1, dynamics.CAP_REACHED
            frm, state = state.strategy(mover), state.with_player(mover, nxt)
            row = snapshot(state)
            dynamics._append_move(trace, round_no, phase, mover, frm, nxt, weights, row)
        round_no += 1


def rows(trace) -> tuple:
    fields = ("index", "round", "phase", "player", "frm", "to")
    steps = [
        tuple(getattr(s, f) for f in fields)
        + (s.cost_before, s.cost_after, s.potential)
        for s in trace.steps
    ]
    return trace.status, trace.final, steps


def record_asks(monkeypatch) -> list[int]:
    """The players ``_descend`` asks for a best response, in order: each ask
    prices her entry weights once."""
    asked = []

    def recorded(game, state, player):
        asked.append(player)
        return entry_weights(game, state, player)

    monkeypatch.setattr(dynamics, "entry_weights", recorded)
    return asked


def solve_both(monkeypatch, solve):
    """``solve()`` with the skipping descent, then with the reference scan."""
    fast = solve()
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_descend", reference_descend)
        slow = solve()
    return fast, slow


def first_bases(game):
    return pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})


# (model, space kind, consistent priorities, player-specific delays)
DESK_CLASSES = {
    "per-resource": ("priority", "singleton", False, False),
    "consistent": ("priority", "singleton", True, False),
    "player-specific": ("priority", "singleton", False, True),
    "classic": ("classic", "singleton", False, False),
    "market-reduced": ("market", "singleton", False, False),
    "explicit": ("priority", "explicit", False, False),
    "uniform": ("priority", "uniform", True, False),
    "partition": ("priority", "partition", False, False),
    "graphic": ("priority", "graphic", True, False),
    "mixed": ("affine", "mixed", False, False),
    "classic-mixed": ("classic", "mixed", False, False),
}


@pytest.mark.parametrize("name", sorted(DESK_CLASSES))
def test_descent_rows_equal_the_ask_everyone_scan(monkeypatch, name):
    model, space, consistent, specific = DESK_CLASSES[name]
    moved = 0
    for seed in range(8):
        game = priority_game(
            gen_source(
                seed,
                players=3 + seed % 6,
                resources=2 + seed % 4,
                model=model,
                space_kind=space,
                levels=1 + seed % 3,
                consistent=consistent,
                player_specific=specific,
            )
        )
        starts = [first_bases(game)]
        starts.append(pg.State({p: game.spaces[p].all_bases()[-1] for p in game.players()}))
        for start in starts:
            for policy in dynamics.POLICIES:
                fast, slow = solve_both(
                    monkeypatch, lambda: pg.run_dynamics(game, start, policy=policy, cap=400)[1]
                )
                assert rows(fast) == rows(slow), (seed, policy)
                moved += len(fast.steps)
        if game.priorities.consistent:
            fast, slow = solve_both(monkeypatch, lambda: pg.solve_consistent_layered(game)[1])
            assert rows(fast) == rows(slow), (seed, "layered")
    assert moved > 0


def three_player_game(b, c, d) -> pg.Game:
    """Players 1 on {a, b}, 2 on {a, d}, 3 on {a, c}; a is the shared resource.

    On a, player 2 sits at level 1 and players 1 and 3 at level 2, with
    d(x, y) = 2 + 3(x + y - 1).  The other resources each have one player
    and the constant delays given.
    """
    bound = 5

    def table(value):
        return pg.table_from_function(lambda x, y: value, bound)

    return pg.build_game(
        n_players=3,
        resources=["a", "b", "c", "d"],
        spaces={
            1: pg.SingletonSpace(["a", "b"]),
            2: pg.SingletonSpace(["a", "d"]),
            3: pg.SingletonSpace(["a", "c"]),
        },
        priorities=pg.PriorityFunction(
            {"a": {1: 2, 2: 1, 3: 2}, "b": {1: 1}, "c": {3: 1}, "d": {2: 1}}
        ),
        delays={
            "a": pg.table_from_function(lambda x, y: 2 + 3 * (x + y - 1), bound),
            "b": table(b),
            "c": table(c),
            "d": table(d),
        },
    )


# Player 3 leaves a for c.  Then a is cheaper for player 1 (her level there
# equals 3's), who now leaves b for a; player 2 (level 1 on a, on d) is not
# helped by it and is not asked again.
LEFT = (three_player_game(3, 1, 1), {1: "b", 2: "d", 3: "a"})
# Player 3 joins a from c.  Then a is dearer for player 1 (on a, at 3's
# level), who now leaves a for b; player 2 (on a, level 1) is not asked again.
JOINED = (three_player_game(6, 10, 3), {1: "a", 2: "a", 3: "c"})


@pytest.mark.parametrize("case", ["left", "joined"])
def test_each_half_of_the_rule_asks_only_who_was_helped(monkeypatch, case):
    game, start = {"left": LEFT, "joined": JOINED}[case]
    asked = record_asks(monkeypatch)
    fast, slow = solve_both(monkeypatch, lambda: pg.run_dynamics(game, pg.State(start))[1])
    assert rows(fast) == rows(slow)
    assert [(s.player, s.frm, s.to) for s in fast.steps] == [
        (3, frozenset(start[3]), frozenset("c" if case == "left" else "a")),
        (1, frozenset(start[1]), frozenset("a" if case == "left" else "b")),
    ]
    assert pg.is_pure_nash(game, fast.final)
    # skipping: 1 and 2 settle, 3 moves, 1 moves, 2 is skipped, 3 and 1 settle;
    # then the reference, which asks 2 again
    assert asked == [1, 2, 3, 1, 3, 1] + [1, 2, 3, 1, 2, 3, 1]


def test_a_player_at_infinite_cost_is_asked_again(monkeypatch):
    """Player 1 pays +inf on a while 2 is there, on both her bases; 2 leaving
    a makes a cheaper for 1, who uses it, and exposes her cheaper base."""
    game = pg.build_game(
        n_players=2,
        resources=["a", "b", "c", "e"],
        spaces={1: pg.ExplicitSpace([["a", "b"], ["a", "c"]]), 2: pg.SingletonSpace(["a", "e"])},
        priorities=pg.PriorityFunction(
            {"a": {1: 2, 2: 1}, "b": {1: 1}, "c": {1: 1}, "e": {2: 1}}
        ),
        delays={
            "a": pg.table_from_function(lambda x, y: "inf" if x else y, 3),
            "b": pg.table_from_function(lambda x, y: 1, 3),
            "c": pg.table_from_function(lambda x, y: 5, 3),
            "e": pg.table_from_function(lambda x, y: 0, 3),
        },
    )
    start = pg.State({1: ["a", "c"], 2: "a"})
    assert pg.player_cost(game, start, 1) == pg.INFINITY
    fast, slow = solve_both(monkeypatch, lambda: pg.run_dynamics(game, start)[1])
    assert rows(fast) == rows(slow)
    assert [s.player for s in fast.steps] == [2, 1]
    assert fast.final.strategy(1) == frozenset("ab") and pg.is_pure_nash(game, fast.final)


def test_best_ranks_equal_gains_by_value_and_ties_to_the_earliest(monkeypatch):
    """Five players, each alone on two private resources of constant delay,
    moving from ``o<i>`` to ``n<i>`` for these gains:

    - 1: 1 -> 1/2 and 2: 5/4 -> 3/4, both 1/2, kept as the unreduced pairs
      (1, 2) and (8, 16);
    - 3: 4 -> 1, a finite 3 ranked before two infinite gains;
    - 4: inf -> 2 and 5: inf -> 7, both infinite.

    ``best`` moves the infinite gains first, 4 before 5, then 3, then the
    equal gains, 1 before 2: each tie goes to the earliest mover.
    """
    moves = {1: ("1", "1/2"), 2: ("5/4", "3/4"), 3: ("4", "1"), 4: ("inf", "2"), 5: ("inf", "7")}
    delays = {}
    for p, (before, after) in moves.items():
        delays[f"o{p}"] = pg.table_from_function(lambda x, y, c=before: c, 9)
        delays[f"n{p}"] = pg.table_from_function(lambda x, y, c=after: c, 9)
    game = pg.build_game(
        n_players=5,
        resources=sorted(delays),
        spaces={p: pg.SingletonSpace([f"o{p}", f"n{p}"]) for p in moves},
        priorities=pg.PriorityFunction({r: {int(r[1:]): 1} for r in delays}),
        delays=delays,
    )
    start = pg.State({p: f"o{p}" for p in moves})
    fast, slow = solve_both(monkeypatch, lambda: pg.run_dynamics(game, start, policy="best")[1])
    assert rows(fast) == rows(slow)
    assert [(s.player, str(s.cost_before), str(s.cost_after)) for s in fast.steps] == [
        (4, "inf", "2/1"),
        (5, "inf", "7/1"),
        (3, "4/1", "1/1"),
        (1, "1/1", "1/2"),
        (2, "5/4", "3/4"),
    ]
    assert improvement(pg.cost("5/4"), pg.cost("3/4")) == improvement(pg.cost(1), pg.cost("1/2"))
    assert fast.status == dynamics.CONVERGED and pg.is_pure_nash(game, fast.final)


def affine_document_n32() -> dict:
    """32 singleton players on 8 shared affine resources, per-resource levels 1..3."""
    rng = random.Random("descent:affine:32")
    rids = [f"r{k}" for k in range(8)]
    return {
        "version": 1,
        "model": "priority",
        "players": 32,
        "resources": rids,
        "strategies": {
            str(i): {"kind": "singleton", "allowed": sorted(rng.sample(rids, rng.randint(2, 4)))}
            for i in range(1, 33)
        },
        "priorities": {
            "per_resource": {rid: [rng.randint(1, 3) for _ in range(32)] for rid in rids}
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


def test_roundrobin_asks_fewer_players_than_the_reference(monkeypatch):
    game = pg.parse_instance(json.dumps(affine_document_n32()))
    asked = record_asks(monkeypatch)
    fast = pg.run_dynamics(game, first_bases(game))[1]
    skipping = len(asked)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_descend", reference_descend)
        slow = pg.run_dynamics(game, first_bases(game))[1]
    assert rows(fast) == rows(slow) and len(fast.steps) > 10
    assert skipping < len(asked) - skipping


def policy_digests(path: str) -> dict[str, str]:
    """Trace CSV digests of the three policies from the all-first start."""
    game = pg.parse_instance(Path(path).read_bytes())
    return {
        policy: hashlib.sha256(
            trace_to_csv_text(pg.run_dynamics(game, first_bases(game), policy=policy)[1]).encode()
        ).hexdigest()
        for policy in dynamics.POLICIES
    }


def test_descent_under_optimize_writes_the_same_traces(tmp_path):
    """The settled-set bookkeeping holds without ``assert``: a child started
    with -O writes the in-process traces byte for byte."""
    path = tmp_path / "affine32.json"
    path.write_text(json.dumps(affine_document_n32()))
    paths = [str(Path(pg.__file__).parent.parent), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = (
        "import json, sys\n"
        "from test_descent import policy_digests\n"
        "print(json.dumps({'debug': __debug__, **policy_digests(sys.argv[1])}))"
    )
    child = subprocess.run(
        [sys.executable, "-O", "-c", code, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result.pop("debug") is False
    assert result == policy_digests(str(path))


# ---------------------------------------------------------------------------
# Kept answers, derived count tables, one validation and lazy state keys


def desk_game(name, seed):
    model, space, consistent, specific = DESK_CLASSES[name]
    return priority_game(
        gen_source(
            seed,
            players=3 + seed % 6,
            resources=2 + seed % 4,
            model=model,
            space_kind=space,
            levels=1 + seed % 3,
            consistent=consistent,
            player_specific=specific,
        )
    )


@pytest.mark.parametrize("name", sorted(DESK_CLASSES))
def test_stepped_tables_equal_a_fresh_count(monkeypatch, name):
    """Placements, moves and unplacements derive their successor's table."""
    counted = []
    monkeypatch.setattr(
        congestion, "level_counts", lambda *a: counted.append(a) or level_counts(*a)
    )
    for seed in range(4):
        game = desk_game(name, seed)
        last = {p: game.spaces[p].all_bases()[-1] for p in game.players()}
        steps = [(p, game.spaces[p].all_bases()[0]) for p in game.players()]
        steps += list(last.items()) + [(p, None) for p in game.players()]
        state = pg.State({})
        congestion.tally(game, state)
        for player, strategy in steps:
            counted.clear()
            state = congestion.step_state(game, state, player, strategy)
            assert congestion.tally(game, state) == level_counts(game, state)
            assert not counted, (seed, player, strategy)
        assert congestion.tally(game, state) == {}


def test_a_step_off_the_slot_is_counted_afresh(monkeypatch):
    game = desk_game("per-resource", 3)
    bases = {p: game.spaces[p].all_bases()[0] for p in game.players()}
    state, twin = pg.State(bases), pg.State(bases)
    table = congestion.tally(game, twin)
    new = congestion.step_state(game, state, 1, game.spaces[1].all_bases()[-1])
    assert congestion.tally(game, twin) is table  # the slot still holds twin
    counted = []
    monkeypatch.setattr(
        congestion, "level_counts", lambda *a: counted.append(a) or level_counts(*a)
    )
    assert congestion.tally(game, new) == level_counts(game, new) and len(counted) == 1


def test_best_asks_fewer_players_than_the_reference(monkeypatch):
    """Kept improvers' answers: well under half the reference's asks, where
    re-asking every improver on every pass takes more than half."""
    game = pg.parse_instance(json.dumps(affine_document_n32()))
    asked = record_asks(monkeypatch)
    fast = pg.run_dynamics(game, first_bases(game), policy="best")[1]
    keeping = len(asked)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_descend", reference_descend)
        slow = pg.run_dynamics(game, first_bases(game), policy="best")[1]
    assert rows(fast) == rows(slow) and len(fast.steps) > 10
    assert 5 * keeping < 2 * (len(asked) - keeping)


def test_an_improver_not_chosen_is_asked_again_only_at_her_level(monkeypatch):
    """Players 1 on {a, b}, 2 on {b, c}, 3 on {b, e}, all improving toward b.

    On b, players 1 and 3 sit at level 1 and player 2 at level 2, with
    d(x, y) = x + y; a, c and e cost 10, 100 and 50.  Under ``best`` player
    2 moves first, below player 1's level on b, so 1's kept answer stands;
    then player 3 moves at 1's level, and 1 is asked again.
    """
    const = lambda value: pg.table_from_function(lambda x, y: value, 5)  # noqa: E731
    game = pg.build_game(
        n_players=3,
        resources=["a", "b", "c", "e"],
        spaces={
            1: pg.SingletonSpace(["a", "b"]),
            2: pg.SingletonSpace(["b", "c"]),
            3: pg.SingletonSpace(["b", "e"]),
        },
        priorities=pg.PriorityFunction(
            {"a": {1: 1}, "b": {1: 1, 2: 2, 3: 1}, "c": {2: 1}, "e": {3: 1}}
        ),
        delays={
            "a": const(10),
            "b": pg.table_from_function(lambda x, y: x + y, 5),
            "c": const(100),
            "e": const(50),
        },
    )
    start = pg.State({1: "a", 2: "c", 3: "e"})
    asked = record_asks(monkeypatch)
    fast, slow = solve_both(monkeypatch, lambda: pg.run_dynamics(game, start, policy="best")[1])
    assert rows(fast) == rows(slow)
    assert [s.player for s in fast.steps] == [2, 3, 1]
    # all three, then only the mover 2; then 1 again after 3 joined b at her level
    assert asked[:10] == [1, 2, 3] + [2] + [1, 2, 3] + [1, 2, 3]
    assert pg.is_pure_nash(game, fast.final)


def test_run_dynamics_validates_its_start_once(monkeypatch):
    game = pg.parse_instance(json.dumps(affine_document_n32()))
    calls = []

    def counted(game, state, *, full=False):
        calls.append(state)
        return validate_state(game, state, full=full)

    for module in (dynamics, potentials):
        monkeypatch.setattr(module, "validate_state", counted)
    start = first_bases(game)
    _, trace = pg.run_dynamics(game, start)
    assert len(trace.steps) > 10 and all(s.potential for s in trace.steps)
    assert calls == [start]


def test_equal_states_built_differently_are_equal_and_hash_equal():
    bare = pg.State({1: "a", 2: ["b", "c"], 3: "d"})
    sets = pg.State({3: {"d"}, 2: frozenset("cb"), 1: ["a"]})
    stepped = pg.State({2: "b"}).with_player(3, "d").with_player(1, "a").with_player(2, ["c", "b"])
    assert hash(bare) == hash(sets) and bare == sets
    assert stepped == bare and hash(stepped) == hash(sets)
    assert len({bare, sets, stepped}) == 1
    for other in (bare.with_player(3, "e"), bare.without_player(1), pg.State({})):
        assert other != bare and other not in {bare}

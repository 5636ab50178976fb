"""The one-pass level-count kernel agrees with a naive per-resource recount.

The reference functions below rescan every covered player for every
resource they ask about, as the congestion queries and potentials did before
they read one shared table.  A seeded sweep over the generator's instance
classes compares both on full and partial states.  The running level
potential (``LevelRun``) is held to a fresh ``level_potential`` on every
state of layered traces, and certify's final check is shown to catch a
kept term no row can see.  Each player's pricing plan (``Game.plan``) is
checked against the game's priorities and delay specs, and shown to be
built at most once per player in a solve and its certify.
"""

import random
from dataclasses import replace

import pytest

import prioritygames as pg
from conftest import gen_source
from prioritygames import oracle
from prioritygames.core import PerPlayerDelay, evaluate_delay
from prioritygames.congestion import level_counts, step_state
from prioritygames.costs import sum_costs
from prioritygames.matroids import singleton_resources
from prioritygames.potentials import InsertionRun, LevelRun, tolerance
from test_trace_digests import make_affine_n24

# (model, space kind, consistent priorities, player-specific delays)
CLASSES = (
    ("priority", "singleton", False, False),
    ("priority", "singleton", False, True),
    ("priority", "uniform", True, False),
    ("priority", "partition", True, False),
    ("priority", "graphic", True, False),
    ("classic", "singleton", False, False),
    ("classic", "uniform", True, False),
    ("affine", "singleton", False, False),
    ("affine", "mixed", False, False),
    ("market", "singleton", False, False),
)
SEEDS = range(6)


def naive_counts(game, state, rid) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p, s in state.items():
        if rid in s:
            q = game.priority(rid, p)
            counts[q] = counts.get(q, 0) + 1
    return counts


def naive_below(counts, level) -> int:
    return sum(c for q, c in counts.items() if q < level)


def naive_cost(game, state, player):
    parts = []
    for rid in state.strategy(player):
        q = game.priority(rid, player)
        counts = naive_counts(game, state, rid)
        below = naive_below(counts, q)
        parts.append(evaluate_delay(game.delays[rid], below, counts[q], player))
    return sum_costs(parts)


def naive_weights(game, state, player):
    others = state.without_player(player) if state.covers(player) else state
    weights = {}
    for rid in sorted(game.ground_of(player)):
        q = game.priority(rid, player)
        counts = naive_counts(game, others, rid)
        below = naive_below(counts, q)
        weights[rid] = evaluate_delay(game.delays[rid], below, counts.get(q, 0) + 1, player)
    return weights


def naive_lex_pairs(game, prof):
    pairs = []
    for rid in game.resources:
        counts = naive_counts(game, prof, rid)
        prefix = 0
        for q in sorted(counts):
            for y in range(1, counts[q] + 1):
                pairs.append((game.delays[rid].value(prefix, y), q))
            prefix += counts[q]
    return tuple(sorted(pairs))


def naive_level_value(game, outer, inner):
    parts = []
    for rid in game.resources:
        frozen = sum(1 for _, s in outer.items() if rid in s)
        active = sum(1 for _, s in inner.items() if rid in s)
        parts += [game.delays[rid].value(frozen, k) for k in range(1, active + 1)]
    return sum_costs(parts)


def naive_tol(game, state, player) -> int:
    (rid,) = state.strategy(player)
    rivals = naive_weights(game, state, player)
    ceiling = pg.INFINITY
    for alt in singleton_resources(game.spaces[player]):
        if alt != rid and rivals[alt] < ceiling:
            ceiling = rivals[alt]
    q = game.priority(rid, player)
    below = naive_below(naive_counts(game, state.without_player(player), rid), q)
    best = 0
    for y in range(1, game.n_players + 1):
        if not evaluate_delay(game.delays[rid], below, y, player) <= ceiling:
            break
        best = y
    return best


def naive_insertion(game, state):
    rows = []
    for rid in game.resources:
        counts = naive_counts(game, state, rid)
        top = game.priorities.max_level(rid)
        rows.append(tuple(counts.get(q, 0) for q in range(1, top + 1)))
    tol_sum = sum(naive_tol(game, state, p) for p in state.players())
    return tuple(sorted(rows)), tol_sum


def sample_states(game, rng):
    """One full profile and two partial states (one may be empty)."""
    full = pg.State({p: rng.choice(game.spaces[p].all_bases()) for p in game.players()})
    out = [full]
    for _ in range(2):
        keep = [p for p in game.players() if rng.random() < 0.5]
        out.append(pg.State({p: full.strategy(p) for p in keep}))
    return out


def check_state(game, state, *, full):
    for rid in game.resources:
        expected = naive_counts(game, state, rid)
        assert level_counts(game, state).get(rid, {}) == expected
        view = pg.congestion_view(game, state, rid)
        assert view.level_counts == tuple(sorted(expected.items()))
        assert view.total == sum(expected.values())
    for p in game.players():
        assert pg.entry_weights(game, state, p) == naive_weights(game, state, p)
        if state.covers(p):
            assert pg.player_cost(game, state, p) == naive_cost(game, state, p)
    singleton = game.is_singleton_game()
    if singleton:
        value = pg.insertion_potential(game, state)
        assert (value.rows, value.tol_sum) == naive_insertion(game, state)
        for p in state.players():
            assert pg.tol_value(game, state, p) == naive_tol(game, state, p)
    if full and singleton and not game.player_specific:
        assert pg.lex_potential_singleton(game, state).pairs == naive_lex_pairs(game, state)
    if full and game.priorities.consistent and not game.player_specific:
        level_of = {p: game.priority(game.resources[0], p) for p in game.players()}
        for q in sorted(set(level_of.values())):
            outer = pg.State({p: s for p, s in state.items() if level_of[p] < q})
            inner = pg.State({p: s for p, s in state.items() if level_of[p] == q})
            got = pg.level_potential(game, state, q).value
            assert got == naive_level_value(game, outer, inner)


@pytest.mark.parametrize("model,space,consistent,specific", CLASSES)
def test_kernel_matches_naive_recount(model, space, consistent, specific):
    for seed in SEEDS:
        source = gen_source(
            seed,
            players=3 + seed % 4,
            resources=2 + seed % 3,
            model=model,
            space_kind=space,
            levels=2 + seed % 2,
            consistent=consistent,
            player_specific=specific,
        )
        if isinstance(source, pg.MarketGame):
            game = pg.reduce_market_to_playerspecific(source)
        elif isinstance(source, pg.ClassicGame):
            game = pg.reduce_classic_to_priority(source)
        elif isinstance(source, pg.AffineGame):
            game = pg.reduce_affine_to_priority(source)
        else:
            game = source
        assert game.player_specific == (specific or model == "market")
        rng = random.Random(f"kernel:{model}:{space}:{seed}")
        for k, state in enumerate(sample_states(game, rng)):
            check_state(game, state, full=k == 0)


# ---------------------------------------------------------------------------
# Tolerances (closed form on affine delays, bisection otherwise) against a
# naive linear scan


def check_tolerances(game, state):
    for p in state.players():
        expected = naive_tol(game, state, p)
        assert pg.tol_value(game, state, p) == expected


def random_singleton_game(rng, delay_of):
    """Per-resource priorities on 1..3, random singleton spaces."""
    n = rng.randint(4, 9)
    resources = [f"r{k}" for k in range(rng.randint(2, 4))]
    spaces = {
        p: pg.SingletonSpace(rng.sample(resources, rng.randint(1, len(resources))))
        for p in range(1, n + 1)
    }
    priorities = {r: {p: rng.randint(1, 3) for p in range(1, n + 1)} for r in resources}
    return pg.build_game(
        n_players=n,
        resources=resources,
        spaces=spaces,
        priorities=pg.PriorityFunction(priorities),
        delays={r: delay_of(rng, n) for r in resources},
    )


def plateau_table(rng, n):
    """a*x + floor((y + s)/w): flat runs of w equal values in y."""
    a, s, w = rng.randint(1, 3), rng.randint(0, 3), rng.randint(2, 5)
    return pg.table_from_function(lambda x, y: a * x + (y + s) // w, 2 * n - 1)


def plateau_classic(rng, n):
    """+infinity whenever x >= 1; flat runs along x = 0."""
    w = rng.randint(2, 4)
    return pg.ClassicDelay(values=tuple(pg.cost(1 + y // w) for y in range(n)))


def priority_game(source):
    if isinstance(source, pg.MarketGame):
        return pg.reduce_market_to_playerspecific(source)
    if isinstance(source, pg.ClassicGame):
        return pg.reduce_classic_to_priority(source)
    if isinstance(source, pg.AffineGame):
        return pg.reduce_affine_to_priority(source)
    return source


@pytest.mark.parametrize(
    "model,consistent,specific", [(m, c, s) for m, sp, c, s in CLASSES if sp == "singleton"]
)
def test_tolerance_matches_naive_scan(model, consistent, specific):
    for seed in SEEDS:
        source = gen_source(
            seed,
            players=3 + seed % 4,
            resources=2 + seed % 3,
            model=model,
            space_kind="singleton",
            levels=2 + seed % 2,
            consistent=consistent,
            player_specific=specific,
        )
        game = priority_game(source)
        rng = random.Random(f"tol:{model}:{specific}:{seed}")
        for state in sample_states(game, rng):
            check_tolerances(game, state)


@pytest.mark.parametrize("delay_of", [plateau_table, plateau_classic])
def test_tolerance_matches_naive_scan_on_ties(delay_of):
    tolerances = set()
    for seed in range(12):
        rng = random.Random(f"tol-ties:{delay_of.__name__}:{seed}")
        game = random_singleton_game(rng, delay_of)
        for state in sample_states(game, rng):
            check_tolerances(game, state)
            tolerances |= {pg.tol_value(game, state, p) for p in state.players()}
    # the sample reaches zero tolerances and several larger ones
    assert 0 in tolerances and len(tolerances) > 3


def test_tolerance_skips_dead_ground_elements():
    """Rank-1 partition spaces with a zero-cap block: their ground is larger
    than the resources a strategy can use.  Every player's dead block holds
    ``z``, whose delay is zero everywhere, so pricing a dead element would
    lower the ceiling and the tolerance with it, and the kept flag would
    part from ``has_better_response``."""
    flags = set()
    for seed in range(12):
        rng = random.Random(f"tol-dead:{seed}")
        n = rng.randint(4, 8)
        resources = [f"r{k}" for k in range(rng.randint(3, 5))]
        spaces = {}
        for p in range(1, n + 1):
            live = rng.sample(resources, rng.randint(1, len(resources) - 1))
            rest = [r for r in resources if r not in live]
            dead = ["z"] + rng.sample(rest, rng.randint(0, len(rest)))
            spaces[p] = pg.PartitionMatroid([live, dead], [1, 0])
        ids = resources + ["z"]
        priorities = {r: {p: rng.randint(1, 3) for p in range(1, n + 1)} for r in ids}
        delays = {r: plateau_table(rng, n) for r in resources}
        delays["z"] = pg.table_from_function(lambda x, y: 0, 2 * n - 1)
        game = pg.build_game(
            n_players=n,
            resources=ids,
            spaces=spaces,
            priorities=pg.PriorityFunction(priorities),
            delays=delays,
        )
        assert game.is_singleton_game()
        for p in game.players():
            assert "z" in game.ground_of(p) - singleton_resources(game.spaces[p])
        for state in sample_states(game, rng):
            check_tolerances(game, state)
            flags |= check_records(game, state)
    assert flags == {False, True}


# ---------------------------------------------------------------------------
# The kept tolerance record: the certifier's incentive flag and tolerance


def naive_ceiling(game, state, player):
    (rid,) = state.strategy(player)
    rivals = naive_weights(game, state, player)
    alts = [rivals[alt] for alt in singleton_resources(game.spaces[player]) if alt != rid]
    return min(alts, default=pg.INFINITY)


def check_records(game, state) -> set[bool]:
    """Tolerance records against the greedy query and the naive references;
    returns the flags seen."""
    pg.insertion_potential(game, state)
    flags = set()
    for p in state.players():
        record = tolerance(game, state, p)
        assert record.improvable == pg.has_better_response(game, state, p)
        assert record.tol == pg.tol_value(game, state, p) == naive_tol(game, state, p)
        assert record.stay == naive_cost(game, state, p)
        assert record.ceiling == naive_ceiling(game, state, p)
        flags.add(record.improvable)
    return flags


def partial_states(game, rng, count=4):
    """Random partial states: each player placed with probability 2/3."""
    for _ in range(count):
        yield pg.State(
            {
                p: rng.choice(game.spaces[p].all_bases())
                for p in game.players()
                if rng.random() < 2 / 3
            }
        )


@pytest.mark.parametrize(
    "model,consistent,specific", [(m, c, s) for m, sp, c, s in CLASSES if sp == "singleton"]
)
def test_kept_flag_matches_has_better_response(model, consistent, specific):
    flags = set()
    for seed in SEEDS:
        source = gen_source(
            seed,
            players=3 + seed % 4,
            resources=2 + seed % 3,
            model=model,
            space_kind="singleton",
            levels=2 + seed % 2,
            consistent=consistent,
            player_specific=specific,
        )
        game = priority_game(source)
        rng = random.Random(f"flag:{model}:{specific}:{seed}")
        for state in partial_states(game, rng):
            flags |= check_records(game, state)
    assert flags == {False, True}


@pytest.mark.parametrize("delay_of", [plateau_table, plateau_classic])
def test_kept_flag_matches_has_better_response_on_ties(delay_of):
    flags = set()
    for seed in range(12):
        rng = random.Random(f"flag-ties:{delay_of.__name__}:{seed}")
        game = random_singleton_game(rng, delay_of)
        for state in partial_states(game, rng):
            flags |= check_records(game, state)
    assert flags == {False, True}


@pytest.mark.parametrize(
    "model,consistent,specific", [(m, c, s) for m, sp, c, s in CLASSES if sp == "singleton"]
)
def test_insertion_run_reads_a_jump_of_several_players(model, consistent, specific):
    """``InsertionRun(game, s1).at(s2)`` for random partial states s1, s2: one
    jump places, moves and unplaces several players at once, and may leave
    a mover's rows as they were.  Value and records are held to a fresh
    ``insertion_potential`` and fresh tolerances of a copy of s2."""
    for seed in SEEDS:
        source = gen_source(
            seed,
            players=3 + seed % 4,
            resources=2 + seed % 3,
            model=model,
            space_kind="singleton",
            levels=2 + seed % 2,
            consistent=consistent,
            player_specific=specific,
        )
        game = priority_game(source)
        rng = random.Random(f"jump:{model}:{specific}:{seed}")
        states = list(partial_states(game, rng, count=8))
        for s1, s2 in zip(states, states[1:]):
            run = InsertionRun(game, s1)
            value, fresh = run.at(s2), s2.copy()
            assert value == pg.insertion_potential(game, fresh)
            assert run.records == {p: tolerance(game, fresh, p) for p in fresh.players()}
            assert run.improvable == {p for p, rec in run.records.items() if rec.improvable}


# ---------------------------------------------------------------------------
# The running level potential: kept terms against a fresh evaluation


@pytest.mark.parametrize("model,space", [(m, sp) for m, sp, c, s in CLASSES if c and not s])
def test_level_run_matches_level_potential_on_layered_traces(model, space):
    """Every state of each seed's layered trace, for every level of the
    trace: a ``LevelRun`` stepped along the states the trace's rows derive
    (rows kept by identity), and one fed fresh copies (rows compared by
    equality), each equal to a fresh ``level_potential``."""
    finite = set()
    for seed in SEEDS:
        game = priority_game(
            gen_source(
                seed,
                players=3 + seed % 4,
                resources=2 + seed % 3,
                model=model,
                space_kind=space,
                levels=2 + seed % 2,
                consistent=True,
            )
        )
        _, trace = pg.solve_consistent_layered(game)
        levels = sorted({pg.dynamics.layer_level(s.phase) for s in trace.steps})
        stepped = {q: LevelRun(game, trace.start, q) for q in levels}
        states, values = [trace.start], [{q: run.value for q, run in stepped.items()}]
        for step in trace.steps:
            states.append(step_state(game, states[-1], step.player, step.to))
            values.append({q: run.at(states[-1]) for q, run in stepped.items()})
        copied = {q: LevelRun(game, states[0].copy(), q) for q in levels}
        for state, got in zip(states, values):
            for q in levels:
                expected = pg.level_potential(game, state.copy(), q)
                assert got[q] == copied[q].at(state.copy()) == expected
                finite.add(expected.value.is_finite)
    # classic wraps price a lower level's entry at +inf: plateaus are swept
    assert finite == ({True, False} if model == "classic" else {True})


def test_final_check_catches_a_term_from_a_wrong_row_split(monkeypatch):
    """With the recorded potentials blanked, no row compares a value: a kept
    term derived from another split of its row's players over the levels
    is seen only by certify's final fresh check."""
    game = priority_game(
        gen_source(10, players=8, resources=4, space_kind="uniform", levels=2, consistent=True)
    )
    _, trace = pg.solve_consistent_layered(game)
    blank = replace(trace, steps=[replace(s, potential="") for s in trace.steps])
    assert pg.certify_trace(game, blank).ok

    def drifting(game, state, run, original=oracle._check_replay):
        q = run.q
        rid, row = next((r, row) for r, row in run._rows.items() if row and row.get(q, 0))
        split = {**row, q - 1: row.get(q - 1, 0) + 1, q: row[q] - 1}
        run._rederive(rid, split)
        run._rows[rid] = row
        return original(game, state, run)

    monkeypatch.setattr(oracle, "_check_replay", drifting)
    with pytest.raises(pg.InvariantViolatedError, match="running level potential differs"):
        pg.certify_trace(game, blank)


# ---------------------------------------------------------------------------
# The pricing plan: one per player, compiled once per game


@pytest.mark.parametrize("model,space,consistent,specific", CLASSES)
def test_plan_rows_hold_levels_and_key_players(model, space, consistent, specific):
    """Per resource of the ground, ascending: her priority there, and her
    point table there, keyed by herself exactly on player-specific specs:
    a table is shared across players exactly on shared specs."""
    keyed = set()
    for seed in SEEDS:
        game = priority_game(
            gen_source(
                seed,
                players=3 + seed % 4,
                resources=2 + seed % 3,
                model=model,
                space_kind=space,
                levels=2 + seed % 2,
                consistent=consistent,
                player_specific=specific,
            )
        )
        users: dict[str, dict[int, object]] = {r: {} for r in game.resources}
        for p in game.players():
            plan = game.plan(p)
            assert [r for r, _, _ in plan] == sorted(game.ground_of(p))
            for r, level, table in plan:
                assert level == game.priority(r, p)
                assert table is game.points(r, p)
                spec = game.delays[r]
                specific_spec = isinstance(spec, PerPlayerDelay)
                assert table.spec is (spec.for_player(p) if specific_spec else spec)
                users[r][p] = table
                keyed.add(specific_spec)
            assert game.plan(p) is plan  # kept, not rebuilt
        for r, tables in users.items():
            distinct = len({id(t) for t in tables.values()})
            specific_spec = isinstance(game.delays[r], PerPlayerDelay)
            assert distinct == (len(tables) if specific_spec else min(len(tables), 1))
    assert keyed == ({True} if specific or model == "market" else {False})


def test_plans_leave_game_equality_alone():
    a, b = make_affine_n24(), make_affine_n24()
    a.plan(1)
    assert a._plans and not b._plans
    assert a == b and "_plans" not in repr(a)


class CountingDict(dict):
    """A dict that counts how often each key is set."""

    def __init__(self):
        super().__init__()
        self.sets: dict = {}

    def __setitem__(self, key, value):
        self.sets[key] = self.sets.get(key, 0) + 1
        super().__setitem__(key, value)


def _br(game):
    start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    return pg.run_dynamics(game, start, policy="roundrobin")


@pytest.mark.parametrize("solve", [pg.solve_insertion, _br], ids=["insertion", "br"])
def test_solve_and_certify_build_each_plan_once(solve):
    game = make_affine_n24()
    plans = CountingDict()
    object.__setattr__(game, "_plans", plans)
    _, trace = solve(game)
    assert pg.certify_trace(game, trace).ok
    assert set(plans.sets) == set(game.players())
    assert max(plans.sets.values()) == 1

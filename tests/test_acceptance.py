"""Acceptance suite: one test per shipped guarantee, desk scale, exact.

Every criterion prints a single PASS line with its instance counts and
timing (run with ``pytest tests/test_acceptance.py -v -s``).  All
comparisons are exact rational comparisons; there are no tolerances
anywhere in this file.
"""

import csv
import random
import time
from pathlib import Path

import pytest

import prioritygames as pg
from conftest import all_profiles, gen_source
from prioritygames.matroids import base_weight
from prioritygames.oracle import _profile_is_pne_naive
from prioritygames.potentials import LESS

OUTPUT_DIR = Path(__file__).parent / "output"


def report(name: str, t0: float, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({time.time() - t0:.1f}s, {detail})")


@pytest.fixture(scope="module")
def inconsistent_singletons():
    """500 seeded singleton games with per-resource priorities, n<=5, m<=4."""
    games = []
    for seed in range(500):
        games.append(
            gen_source(
                seed,
                players=2 + seed % 4,
                resources=2 + seed % 3,
                space_kind="singleton",
                levels=2 + seed % 2,
            )
        )
    return games


def test_criterion_1_lex_potential_decreases(inconsistent_singletons):
    """Every better response strictly drops the lexicographic potential."""
    t0 = time.time()
    profiles = 0
    responses = 0
    for game in inconsistent_singletons:
        for prof in all_profiles(game):
            profiles += 1
            before = pg.lex_potential_singleton(game, prof)
            for p in game.players():
                current = pg.player_cost(game, prof, p)
                for alt in game.spaces[p].all_bases():
                    if alt == prof.strategy(p):
                        continue
                    moved = prof.with_player(p, alt)
                    if pg.player_cost(game, moved, p) < current:
                        after = pg.lex_potential_singleton(game, moved)
                        assert pg.lex_compare(after, before) == LESS, (
                            f"potential failed to drop: {before.canonical()} -> "
                            f"{after.canonical()}"
                        )
                        responses += 1
    assert responses > 10_000  # the sweep must be substantial
    assert time.time() - t0 < 60
    report("1 lex-potential-decrease", t0, f"500 games, {profiles} profiles, {responses} better responses")


def test_criterion_2_pne_exists_inconsistent_singleton(inconsistent_singletons):
    t0 = time.time()
    for seed, game in enumerate(inconsistent_singletons):
        assert pg.brute_force_pne(game), f"no equilibrium in singleton instance {seed}"
    assert time.time() - t0 < 30
    report("2 singleton-existence", t0, "500 games, all with >= 1 equilibrium")


def test_criterion_3_layered_solver_correct():
    t0 = time.time()
    kinds = ("singleton", "explicit", "uniform", "partition", "graphic")
    solved = 0
    per_kind = {k: 0 for k in kinds}
    for seed in range(500):
        kind = kinds[seed % 5]
        if kind == "singleton":
            n, m = 2 + seed % 4, 2 + seed % 3
        elif kind == "explicit":
            n, m = 2 + seed % 3, 2 + seed % 3
        else:
            n, m = 2 + seed % 2, 3 + seed % 3  # grounds reach 5 resources
        game = gen_source(
            3000 + seed,
            players=n,
            resources=m,
            space_kind=kind,
            consistent=True,
            levels=2 + seed % 2,
        )
        final, trace = pg.solve_consistent_layered(game)
        assert pg.is_pure_nash(game, final), f"seed {seed}: output not an equilibrium"
        assert final in pg.brute_force_pne(game), f"seed {seed}: not in the oracle set"
        solved += 1
        per_kind[kind] += 1
    assert time.time() - t0 < 120
    report("3 layered-solver", t0, f"{solved} games ({per_kind})")


def test_criterion_4_level_potential_is_exact():
    t0 = time.time()
    rng = random.Random(4)
    subgames = 0
    deviations = 0
    while subgames < 200:
        seed = 4000 + subgames
        game = gen_source(
            seed,
            players=2 + subgames % 4,
            resources=2 + subgames % 3,
            space_kind=("singleton", "mixed")[subgames % 2],
            consistent=True,
            levels=2 + subgames % 2,
        )
        levels = {i: game.priorities.level(i) for i in game.players()}
        q = rng.choice(sorted(set(levels.values())))
        lower = [i for i in game.players() if levels[i] < q]
        mine = [i for i in game.players() if levels[i] == q]
        above = [i for i in game.players() if levels[i] > q]
        outer = pg.State({i: rng.choice(game.spaces[i].all_bases()) for i in lower})
        inner = pg.State({i: rng.choice(game.spaces[i].all_bases()) for i in mine})
        # less prioritized players sit in the state but never count
        ignored = {i: rng.choice(game.spaces[i].all_bases()) for i in above}
        full = pg.State(dict(list(outer.items()) + list(inner.items())) | ignored)
        base = pg.level_potential(game, full, q)
        for i in mine:
            cost_before = pg.player_cost(game, full, i)
            for alt in game.spaces[i].all_bases():
                if alt == inner.strategy(i):
                    continue
                after = pg.level_potential(game, full.with_player(i, alt), q)
                delta_phi = after.value.finite() - base.value.finite()
                delta_cost = (
                    pg.player_cost(game, full.with_player(i, alt), i).finite()
                    - cost_before.finite()
                )
                assert delta_phi == delta_cost, f"seed {seed}: potential is not exact"
                deviations += 1
        subgames += 1
    assert time.time() - t0 < 30
    report("4 level-potential-exact", t0, f"200 subgames, {deviations} deviations, exact equality")


def test_criterion_5_insertion_algorithm():
    t0 = time.time()
    rounds = 0
    cases = {"A": 0, "B1": 0, "B2": 0}
    for seed in range(500):
        game = gen_source(
            5000 + seed,
            players=2 + seed % 4,
            resources=2 + seed % 3,
            space_kind="singleton",
            player_specific=True,
            levels=2 + seed % 2,
        )
        # internal checks: strict potential increase and the case-B1
        # tolerance identities; the round no-incentive invariant is the exit
        # condition of the solver's rebalance loop
        final, trace = pg.solve_insertion(game)
        assert trace.status == "Converged"
        # independent replay re-verifies both round properties
        replay = pg.certify_trace(game, trace)
        assert replay.ok, f"seed {seed}: {replay.summary()}"
        assert _profile_is_pne_naive(game, final), f"seed {seed}: output not an equilibrium"
        rounds += pg.count_steps(trace).rounds
        by_round: dict[int, list] = {}
        for s in trace.steps:
            by_round.setdefault(s.round, []).append(s)
        for steps in by_round.values():
            # on this instance class every round is paper-shaped: the strict
            # potential increase holds and no rebalancing is ever needed
            assert not any(s.phase == "rebalance" for s in steps)
            evicted = [s for s in steps if s.phase == "discard"]
            if not evicted:
                cases["A"] += 1
                continue
            (rid,) = next(s for s in steps if s.phase == "insert").to
            newcomer = next(s for s in steps if s.phase == "insert").player
            mine = game.priority(rid, newcomer)
            if any(game.priority(rid, s.player) == mine for s in evicted):
                cases["B1"] += 1
            else:
                cases["B2"] += 1
    assert cases["B1"] > 0 and cases["B2"] > 0, "eviction cases never exercised"
    assert time.time() - t0 < 120
    report("5 insertion-algorithm", t0, f"500 games, {rounds} rounds, cases {cases}")


def test_criterion_6_reduction_fidelity():
    t0 = time.time()
    checked = {"classic": 0, "affine": 0, "market_embed": 0, "playerspecific": 0}

    def costs_and_pne_agree(source, target, cost_src, cost_tgt):
        for prof in all_profiles(target):
            for i in target.players():
                assert cost_src(source, prof, i) == cost_tgt(target, prof, i)
            assert _profile_is_pne_naive(source, prof) == _profile_is_pne_naive(target, prof)

    for seed in range(200):
        n, m = 2 + seed % 2, 2 + seed % 2
        cg = gen_source(6000 + seed, players=n, resources=m, model="classic", levels=1 + seed % 2)
        game = pg.reduce_classic_to_priority(cg)
        costs_and_pne_agree(cg, game, pg.classic_player_cost, pg.player_cost)
        checked["classic"] += 1

    for seed in range(200):
        n, m = 2 + seed % 2, 2 + seed % 2
        ag = gen_source(6200 + seed, players=n, resources=m, model="affine", levels=1 + seed % 2)
        game = pg.reduce_affine_to_priority(ag)
        costs_and_pne_agree(ag, game, pg.affine_player_cost, pg.player_cost)
        checked["affine"] += 1

    for seed in range(200):
        n, m = 2 + seed % 2, 2 + seed % 2
        game = gen_source(6400 + seed, players=n, resources=m, space_kind="singleton", levels=2)
        market = pg.reduce_priority_to_market(game)
        costs_and_pne_agree(game, market, pg.player_cost, pg.market_player_cost)
        checked["market_embed"] += 1

    for seed in range(200):
        n, m = 2 + seed % 2, 2 + seed % 2
        market = gen_source(6600 + seed, players=n, resources=m, model="market")
        game = pg.reduce_market_to_playerspecific(market)
        costs_and_pne_agree(market, game, pg.market_player_cost, pg.player_cost)
        checked["playerspecific"] += 1

    assert time.time() - t0 < 60
    report("6 reduction-fidelity", t0, f"200 instances per reduction {checked}")


def _random_matroid(rng):
    ids = list("abcdef")[: rng.randint(2, 6)]
    kind = rng.choice(["uniform", "partition", "graphic", "explicit_bases"])
    if kind == "uniform":
        return pg.UniformMatroid(ids, rng.randint(1, min(3, len(ids))))
    if kind == "partition":
        cut = rng.randint(1, len(ids) - 1)
        caps = [rng.randint(0, 1), rng.randint(0, 1)]
        if sum(caps) == 0:
            caps[0] = 1
        return pg.PartitionMatroid([ids[:cut], ids[cut:]], caps)
    if kind == "graphic":
        v = rng.randint(3, 4)
        if len(ids) < v - 1:
            return pg.UniformMatroid(ids, 1)
        verts = [f"v{j}" for j in range(v)]
        edges = [
            (verts[rng.randrange(j)], verts[j], ids[j - 1]) for j in range(1, v)
        ]
        for extra in ids[v - 1 :]:
            u, t = rng.sample(range(v), 2)
            edges.append((verts[u], verts[t], extra))
        return pg.GraphicMatroid(edges)
    pool = pg.UniformMatroid(ids, min(2, len(ids))).all_bases()
    try:
        return pg.ExplicitBasesSpace(rng.sample(pool, rng.randint(1, len(pool))))
    except pg.ValidationFailed:
        return pg.UniformMatroid(ids, min(2, len(ids)))


def test_criterion_7_matroid_machinery():
    t0 = time.time()
    rng = random.Random(777)
    greedy_checked = 0
    paths_checked = 0
    while greedy_checked < 1000:
        space = _random_matroid(rng)
        weights = {r: pg.cost(rng.randint(0, 9)) for r in space.ground()}
        got = pg.greedy_min_base(space, weights)
        assert base_weight(got, weights) == min(
            base_weight(b, weights) for b in space.all_bases()
        )
        greedy_checked += 1
        bases = space.all_bases()
        if len(bases) >= 2:
            start, goal = rng.sample(bases, 2)
            if base_weight(goal, weights) < base_weight(start, weights):
                path = pg.lazy_path(space, start, goal, weights)
                assert path[0] == start
                for a, b in zip(path, path[1:]):
                    assert space.is_base(b)
                    assert len(a - b) == 1 and len(b - a) == 1
                    assert base_weight(b, weights) < base_weight(a, weights)
                paths_checked += 1
    assert paths_checked > 200
    assert time.time() - t0 < 30
    report("7 matroid-machinery", t0, f"{greedy_checked} greedy checks, {paths_checked} lazy paths")


def test_criterion_8_market_potential():
    t0 = time.time()
    responses = 0
    for seed in range(300):
        market = gen_source(
            8000 + seed,
            players=2 + seed % 3,
            resources=2 + seed % 2,
            model="market",
        )
        assert pg.brute_force_pne(market), f"seed {seed}: no market equilibrium"
        for prof in all_profiles(market):
            before = pg.market_lex_potential(market, prof)
            for p in market.players():
                current = pg.market_player_cost(market, prof, p)
                for alt in market.spaces[p].all_bases():
                    if alt == prof.strategy(p):
                        continue
                    moved = prof.with_player(p, alt)
                    if pg.market_player_cost(market, moved, p) < current:
                        after = pg.market_lex_potential(market, moved)
                        assert pg.lex_compare(after, before) == LESS
                        responses += 1
    assert responses > 1_000
    assert time.time() - t0 < 60
    report("8 market-potential", t0, f"300 markets, {responses} better responses")


def test_criterion_9_step_growth():
    t0 = time.time()
    OUTPUT_DIR.mkdir(exist_ok=True)
    out_path = OUTPUT_DIR / "step_growth.csv"
    rows = []
    observed = {}
    for n in (2, 4, 6, 8):
        for seed in range(50):
            game = gen_source(
                9000 + 100 * n + seed,
                players=n,
                resources=4,
                space_kind="singleton",
                consistent=True,
                levels=2 + seed % 2,
            )
            final, trace = pg.solve_consistent_layered(game)
            assert pg.is_pure_nash(game, final)
            levels = len({game.priorities.level(i) for i in game.players()})
            steps = pg.count_steps(trace).total
            bound = n * n * 4 * levels
            assert steps <= bound, f"n={n} seed={seed}: {steps} steps > bound {bound}"
            rows.append([n, seed, levels, steps, bound])
            observed.setdefault(n, []).append(steps)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["players", "seed", "levels", "steps", "bound"])
        writer.writerows(rows)
    curve = {n: max(v) for n, v in observed.items()}
    assert time.time() - t0 < 60
    report("9 step-growth", t0, f"max steps by n: {curve}, report: {out_path}")

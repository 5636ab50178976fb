from fractions import Fraction

import pytest

import prioritygames as pg
from conftest import all_profiles, gen_source
from prioritygames.markets import market_has_better_response
from prioritygames.oracle import _profile_is_pne_naive


def simple_market(costs, fn, levels, bound=3, resources=("e",), n=2):
    tri = pg.tritable_from_function(fn, levels=levels, bound=bound)
    return pg.build_market(
        n_players=n,
        resources=list(resources),
        spaces={i: pg.SingletonSpace(list(resources)) for i in range(1, n + 1)},
        costs=costs,
        delays={r: tri for r in resources},
    )


class TestMarketCost:
    def test_linear_in_cost_level(self):
        distinct = [Fraction(1), Fraction(2)]
        market = simple_market(
            {(1, "e"): Fraction(1), (2, "e"): Fraction(2)},
            lambda l, x, y: distinct[l - 1] + x + y - 1,
            levels=2,
        )
        prof = pg.profile({1: "e", 2: "e"})
        assert pg.market_player_cost(market, prof, 1) == pg.cost(1)
        assert pg.market_player_cost(market, prof, 2) == pg.cost(3)

    def test_lone_player_value_need_not_equal_cost(self):
        market = simple_market(
            {(1, "e"): Fraction(2), (2, "e"): Fraction(2)},
            lambda l, x, y: 7 + x + y,
            levels=1,
        )
        prof = pg.profile({1: "e", 2: "e"})
        # d(c, 0, 1) is a free table value, not the raw cost
        assert pg.market_player_cost(market, prof, 1) == pg.cost(9)

    def test_classic_correlated_embedding_infinite_loser(self):
        # d'(c, x, y) = d(c, y) if x = 0 else infinity
        distinct = [Fraction(1), Fraction(4)]

        def fn(l, x, y):
            return "inf" if x >= 1 else distinct[l - 1] + (y - 1)

        market = simple_market(
            {(1, "e"): Fraction(1), (2, "e"): Fraction(4)}, fn, levels=2
        )
        prof = pg.profile({1: "e", 2: "e"})
        assert pg.market_player_cost(market, prof, 1) == pg.cost(1)
        assert pg.market_player_cost(market, prof, 2) == pg.INFINITY


class TestClassicReduction:
    def classic_2x2(self):
        return pg.build_classic_game(
            n_players=2,
            resources=["a", "b"],
            spaces={1: pg.SingletonSpace(["a", "b"]), 2: pg.SingletonSpace(["a", "b"])},
            priorities=pg.PriorityFunction.constant(["a", "b"], [1, 2]),
            values={r: (pg.cost(1), pg.cost(4)) for r in ("a", "b")},  # d(y) = y^2
        )

    def test_quadratic_no_priorities(self):
        cg = self.classic_2x2()
        game = pg.reduce_classic_to_priority(cg)
        for prof in all_profiles(game):
            for i in (1, 2):
                assert pg.player_cost(game, prof, i) == pg.classic_player_cost(cg, prof, i)

    def test_acceptance_priorities_three_players(self):
        cg = pg.build_classic_game(
            n_players=3,
            resources=["a", "b"],
            spaces={i: pg.SingletonSpace(["a", "b"]) for i in (1, 2, 3)},
            priorities=pg.PriorityFunction(
                {"a": {1: 1, 2: 2, 3: 2}, "b": {1: 2, 2: 1, 3: 1}}
            ),
            values={r: (pg.cost(2), pg.cost(3), pg.cost(7)) for r in ("a", "b")},
        )
        game = pg.reduce_classic_to_priority(cg)
        for prof in all_profiles(game):
            for i in (1, 2, 3):
                assert pg.player_cost(game, prof, i) == pg.classic_player_cost(cg, prof, i)

    def test_single_player(self):
        cg = pg.build_classic_game(
            n_players=1,
            resources=["a"],
            spaces={1: pg.SingletonSpace(["a"])},
            priorities=pg.PriorityFunction.constant(["a"], [1]),
            values={"a": (pg.cost("5/2"),)},
        )
        game = pg.reduce_classic_to_priority(cg)
        prof = pg.profile({1: "a"})
        assert pg.player_cost(game, prof, 1) == pg.cost("5/2")

    def test_non_monotone_rejected(self):
        cg = pg.build_classic_game(
            n_players=2,
            resources=["a"],
            spaces={1: pg.SingletonSpace(["a"]), 2: pg.SingletonSpace(["a"])},
            priorities=pg.PriorityFunction.constant(["a"], [1, 2]),
            values={"a": (pg.cost(5), pg.cost(1))},
        )
        with pytest.raises(pg.NonMonotoneDelayError):
            pg.reduce_classic_to_priority(cg)


class TestAffineReduction:
    def test_three_players_shared_resource(self):
        ag = pg.build_affine_game(
            n_players=3,
            resources=["e"],
            spaces={i: pg.SingletonSpace(["e"]) for i in (1, 2, 3)},
            level_map={1: 1, 2: 2, 3: 2},
            params={"e": (Fraction(2), Fraction(1))},
        )
        game = pg.reduce_affine_to_priority(ag)
        prof = pg.profile({1: "e", 2: "e", 3: "e"})
        assert pg.player_cost(game, prof, 1) == pg.cost(3)
        assert pg.player_cost(game, prof, 2) == pg.cost(6)
        assert pg.player_cost(game, prof, 3) == pg.cost(6)
        for i in (1, 2, 3):
            assert pg.affine_player_cost(ag, prof, i) == pg.player_cost(game, prof, i)

    def test_zero_alpha_flat_cost(self):
        ag = pg.build_affine_game(
            n_players=2,
            resources=["e"],
            spaces={i: pg.SingletonSpace(["e"]) for i in (1, 2)},
            level_map={1: 1, 2: 2},
            params={"e": (Fraction(0), Fraction(7, 2))},
        )
        game = pg.reduce_affine_to_priority(ag)
        prof = pg.profile({1: "e", 2: "e"})
        for i in (1, 2):
            assert pg.player_cost(game, prof, i) == pg.cost("7/2")

    def test_two_player_exhaustive(self):
        ag = pg.build_affine_game(
            n_players=2,
            resources=["a", "b"],
            spaces={i: pg.SingletonSpace(["a", "b"]) for i in (1, 2)},
            level_map={1: 1, 2: 2},
            params={"a": (Fraction(2), Fraction(1)), "b": (Fraction(1, 2), Fraction(0))},
        )
        game = pg.reduce_affine_to_priority(ag)
        for prof in all_profiles(game):
            for i in (1, 2):
                assert pg.player_cost(game, prof, i) == pg.affine_player_cost(ag, prof, i)


class TestPriorityToMarket:
    def test_t1_embedding(self, t1):
        market = pg.reduce_priority_to_market(t1)
        assert market.costs[(1, "a")] == Fraction(1)
        assert market.costs[(2, "a")] == Fraction(2)
        assert market.costs[(1, "b")] == Fraction(2)
        assert market.costs[(2, "b")] == Fraction(1)
        for prof in all_profiles(t1):
            for i in (1, 2):
                assert pg.market_player_cost(market, prof, i) == pg.player_cost(t1, prof, i)

    def test_consistent_game_constant_costs(self):
        from conftest import make_t1_consistent

        market = pg.reduce_priority_to_market(make_t1_consistent())
        assert market.costs[(1, "a")] == market.costs[(1, "b")]
        assert market.costs[(2, "a")] == market.costs[(2, "b")]

    def test_player_specific_input_rejected(self):
        game = gen_source(
            51, players=2, resources=2, space_kind="singleton", player_specific=True
        )
        with pytest.raises(pg.PlayerSpecificInputError):
            pg.reduce_priority_to_market(game)


class TestMarketToPlayerSpecific:
    def test_costs_become_dense_priorities(self):
        distinct = [Fraction(1), Fraction(2)]
        market = simple_market(
            {(1, "e"): Fraction(1), (2, "e"): Fraction(2)},
            lambda l, x, y: distinct[l - 1] + x + y - 1,
            levels=2,
        )
        game = pg.reduce_market_to_playerspecific(market)
        assert game.priority("e", 1) == 1 and game.priority("e", 2) == 2
        for prof in all_profiles(market):
            for i in (1, 2):
                assert pg.player_cost(game, prof, i) == pg.market_player_cost(market, prof, i)

    def test_tied_costs_tie_priorities(self):
        market = simple_market(
            {(1, "e"): Fraction(3), (2, "e"): Fraction(3)},
            lambda l, x, y: x + y,
            levels=1,
        )
        game = pg.reduce_market_to_playerspecific(market)
        assert game.priority("e", 1) == game.priority("e", 2) == 1

    def test_round_trip_priority_market_playerspecific(self, t1):
        market = pg.reduce_priority_to_market(t1)
        back = pg.reduce_market_to_playerspecific(market)
        for prof in all_profiles(t1):
            for i in (1, 2):
                assert pg.player_cost(back, prof, i) == pg.player_cost(t1, prof, i)

    def test_unreachable_resource_gets_zero_table(self):
        # nobody can use "f"; the reduction still gives it a valid delay
        tri = pg.tritable_from_function(lambda l, x, y: l + x + y, levels=2, bound=3)
        market = pg.build_market(
            n_players=2,
            resources=["e", "f"],
            spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
            costs={(1, "e"): Fraction(1), (2, "e"): Fraction(5)},
            delays={"e": tri, "f": pg.TriTable(levels=0, bound=3, entries={})},
        )
        game = pg.reduce_market_to_playerspecific(market)
        assert game.player_specific
        assert game.delays["e"] == pg.PerPlayerDelay(
            specs={1: tri.level_slice(1), 2: tri.level_slice(2)}
        )
        assert game.delays["f"] == pg.table_from_function(lambda x, y: 0, 3)
        prof = pg.profile({1: "e", 2: "e"})
        for i in (1, 2):
            assert pg.player_cost(game, prof, i) == pg.market_player_cost(market, prof, i)


def test_equilibrium_preservation_small_sweep():
    for seed in range(6):
        game = gen_source(900 + seed, players=3, resources=3, space_kind="singleton", levels=2)
        market = pg.reduce_priority_to_market(game)
        back = pg.reduce_market_to_playerspecific(market)
        for prof in all_profiles(game):
            a = _profile_is_pne_naive(game, prof)
            b = _profile_is_pne_naive(market, prof)
            c = _profile_is_pne_naive(back, prof)
            assert a == b == c


def test_market_better_response_matches_naive():
    for seed in range(6):
        market = gen_source(950 + seed, players=3, resources=3, model="market")
        for prof in all_profiles(market):
            for p in market.players():
                current = pg.market_player_cost(market, prof, p)
                naive = any(
                    pg.market_player_cost(market, prof.with_player(p, alt), p) < current
                    for alt in market.spaces[p].all_bases()
                )
                assert market_has_better_response(market, prof, p) == naive


# ---------------------------------------------------------------------------
# Structural checks shared by all four builders

BUILDERS = ("priority", "market", "classic", "affine")


def build_any(kind, n, resources, spaces):
    """One of the four builders on the given structure; everything else valid."""
    players = range(1, n + 1)
    if kind == "priority":
        return pg.build_game(
            n_players=n,
            resources=resources,
            spaces=spaces,
            priorities=pg.PriorityFunction.constant(resources, players),
            delays={r: pg.AffineDelay(alpha=Fraction(1), beta=Fraction(0)) for r in resources},
        )
    if kind == "market":
        tri = pg.tritable_from_function(lambda l, x, y: x + y, levels=1, bound=2 * n)
        return pg.build_market(
            n_players=n,
            resources=resources,
            spaces=spaces,
            costs={(i, r): Fraction(1) for i in players for r in resources},
            delays={r: tri for r in resources},
        )
    if kind == "classic":
        return pg.build_classic_game(
            n_players=n,
            resources=resources,
            spaces=spaces,
            priorities=pg.PriorityFunction.constant(resources, players),
            values={r: tuple(pg.cost(k) for k in players) for r in resources},
        )
    return pg.build_affine_game(
        n_players=n,
        resources=resources,
        spaces=spaces,
        level_map={i: 1 for i in players},
        params={r: (Fraction(1), Fraction(0)) for r in resources},
    )


@pytest.mark.parametrize("kind", BUILDERS)
def test_builders_accept_a_sound_structure(kind):
    spaces = {i: pg.SingletonSpace(["a", "b"]) for i in (1, 2, 3)}
    assert build_any(kind, 3, ["a", "b"], spaces).n_players == 3


@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize(
    "n, resources, spaces, code",
    [
        # a strategy on a resource that is not listed
        (2, ["a"], {1: pg.SingletonSpace(["a", "zz"]), 2: pg.SingletonSpace(["a"])}, "UNKNOWN_RESOURCE"),
        # spaces for 1 of 3 players
        (3, ["a"], {1: pg.SingletonSpace(["a"])}, "BAD_SPACE_KEYS"),
        # '+' joins resource ids in traces, so no id may hold it
        (1, ["a+b"], {1: pg.SingletonSpace(["a+b"])}, "BAD_RESOURCE_ID"),
    ],
    ids=["unknown-resource", "missing-spaces", "plus-in-id"],
)
def test_builders_share_the_structural_checks(kind, n, resources, spaces, code):
    with pytest.raises(pg.ValidationFailed) as exc:
        build_any(kind, n, resources, spaces)
    assert code in {v.code for v in exc.value.violations}


def test_build_game_structural_messages():
    with pytest.raises(pg.ValidationFailed) as exc:
        build_any("priority", 3, ["a"], {1: pg.SingletonSpace(["a", "zz"])})
    assert [str(v) for v in exc.value.violations] == [
        str(pg.Violation("BAD_SPACE_KEYS", "strategy spaces", "expected players [1, 2, 3], got [1]")),
        str(pg.Violation("UNKNOWN_RESOURCE", "player 1", "strategies use ['zz']")),
    ]


def test_build_market_rejects_stray_entries():
    # like a bivariate table, a trivariate one may hold no point past its
    # levels or its bound: emitting the market would write those points back
    costs = {(1, "e"): Fraction(1), (2, "e"): Fraction(1)}
    tri = pg.tritable_from_function(lambda l, x, y: x + y, levels=1, bound=3)
    stray = dict(tri.entries)
    stray[(2, 0, 1)] = pg.cost(1)  # level past the table's one level
    stray[(1, 2, 2)] = pg.cost(4)  # x + y past the bound
    with pytest.raises(pg.ValidationFailed) as exc:
        pg.build_market(
            n_players=2,
            resources=["e"],
            spaces={i: pg.SingletonSpace(["e"]) for i in (1, 2)},
            costs=costs,
            delays={"e": pg.TriTable(levels=1, bound=3, entries=stray)},
        )
    assert sorted((v.code, v.where) for v in exc.value.violations) == [
        ("STRAY_ENTRY", "resource e: (level=1, x=2, y=2)"),
        ("STRAY_ENTRY", "resource e: (level=2, x=0, y=1)"),
    ]


def test_build_market_rejects_malformed_tables():
    costs = {(1, "e"): Fraction(1), (2, "e"): Fraction(1)}
    tri = pg.tritable_from_function(lambda l, x, y: x + y, levels=1, bound=3)

    def violations(table):
        with pytest.raises(pg.ValidationFailed) as exc:
            pg.build_market(
                n_players=2,
                resources=["e"],
                spaces={i: pg.SingletonSpace(["e"]) for i in (1, 2)},
                costs=costs,
                delays={"e": table},
            )
        return [(v.code, v.where, v.message) for v in exc.value.violations]

    entries = dict(tri.entries)
    entries[(1, 1, 1)] = Fraction(2)
    entries[(1, 0, 2)] = 2.0
    assert violations(pg.TriTable(levels=1, bound=3, entries=entries)) == [
        (
            "BAD_DELAY",
            "resource e",
            "tritable entry (level=1, x=0, y=2) is 2.0, not an ExtCost",
        )
    ]
    assert violations(tri.level_slice(1)) == [
        ("BAD_DELAY", "resource e", f"{tri.level_slice(1)!r} is not a TriTable")
    ]


@pytest.mark.parametrize("seed", range(3))
def test_reduction_checks_each_level_slice_once(monkeypatch, seed):
    # the players of one cost level share that level's slice, so build_game
    # checks it once; violations would still be reported once per player
    import prioritygames.core as core

    market = gen_source(seed, players=8, resources=6, model="market", levels=3)
    slices = {
        (r, market.player_level(r, i))
        for r in market.resources
        for i in market.reachable_players(r)
    }
    uses = sum(len(market.reachable_players(r)) for r in market.resources)
    assert all(market.reachable_players(r) for r in market.resources)
    assert len(slices) < uses

    calls = []
    check = core.validate_delay_properties

    def counted(spec, bound):
        calls.append(spec)
        return check(spec, bound)

    monkeypatch.setattr(core, "validate_delay_properties", counted)
    game = pg.reduce_market_to_playerspecific(market)
    assert len(calls) == len(slices)
    assert len({id(spec) for spec in calls}) == len(slices)
    for r in market.resources:
        for i in market.reachable_players(r):
            assert game.delays[r].for_player(i) == market.delays[r].level_slice(
                market.player_level(r, i)
            )

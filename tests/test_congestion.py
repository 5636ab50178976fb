import random

import pytest

import prioritygames as pg
from conftest import all_profiles, gen_game, make_t1
from prioritygames.costs import sum_costs
from prioritygames.matroids import base_weight
from prioritygames.oracle import _profile_is_pne_naive


# generator games of every space kind, with classic (+inf) and player-specific delays
SWEEP_KINDS = pytest.mark.parametrize(
    "kw",
    [
        dict(space_kind="singleton", levels=3),
        dict(space_kind="explicit", levels=2),
        dict(space_kind="uniform", levels=2),
        dict(space_kind="mixed", levels=3),
        dict(space_kind="graphic", levels=2),
        dict(space_kind="partition", levels=3),
        dict(space_kind="mixed", model="classic"),
        dict(space_kind="graphic", model="classic"),
        dict(space_kind="mixed", player_specific=True, levels=2),
        dict(space_kind="partition", player_specific=True, levels=2),
    ],
    ids=lambda kw: "-".join(str(v) for v in kw.values()),
)


def three_on_one_game(delay=lambda x, y: x + y):
    return pg.build_game(
        n_players=3,
        resources=["e"],
        spaces={i: pg.SingletonSpace(["e"]) for i in (1, 2, 3)},
        priorities=pg.PriorityFunction({"e": {1: 1, 2: 1, 3: 2}}),
        delays={"e": pg.table_from_function(delay, 5)},
    )


class TestCongestionView:
    def test_t1_shared_resource(self, t1):
        view = pg.congestion_view(t1, pg.profile({1: "a", 2: "a"}), "a")
        assert view.total == 2
        assert view.level_counts == ((1, 1), (2, 1))
        assert view.below(2) == 1
        assert view.p_star == 1

    def test_empty_resource(self, t1):
        view = pg.congestion_view(t1, pg.profile({1: "a", 2: "a"}), "b")
        assert view.total == 0 and view.levels == () and view.p_star is None

    def test_three_players_two_levels(self):
        game = three_on_one_game()
        view = pg.congestion_view(game, pg.profile({1: "e", 2: "e", 3: "e"}), "e")
        assert view.count_at(1) == 2
        assert view.below(2) == 2
        assert view.count_at(2) == 1

    def test_level_count_invariants(self):
        game = three_on_one_game()
        view = pg.congestion_view(game, pg.profile({1: "e", 2: "e", 3: "e"}), "e")
        assert sum(c for _, c in view.level_counts) == view.total
        assert view.below(view.levels[0]) == 0


class TestPlayerCost:
    def test_t1_costs(self, t1):
        prof = pg.profile({1: "a", 2: "a"})
        assert pg.player_cost(t1, prof, 1) == pg.cost(1)
        assert pg.player_cost(t1, prof, 2) == pg.cost(3)

    def test_low_priority_player_pays_for_both(self):
        game = three_on_one_game()
        prof = pg.profile({1: "e", 2: "e", 3: "e"})
        assert pg.player_cost(game, prof, 3) == pg.cost(3)  # d(2, 1)

    def test_classic_wrap_infinity(self):
        game = pg.build_game(
            n_players=2,
            resources=["e"],
            spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
            priorities=pg.PriorityFunction({"e": {1: 1, 2: 2}}),
            delays={"e": pg.ClassicDelay(values=(pg.cost(1), pg.cost(2)))},
        )
        prof = pg.profile({1: "e", 2: "e"})
        assert pg.player_cost(game, prof, 1) == pg.cost(1)
        assert pg.player_cost(game, prof, 2) == pg.INFINITY

    def test_unplaced_player_is_an_error(self, t1):
        with pytest.raises(pg.PlayerNotPlacedError):
            pg.player_cost(t1, pg.State({1: "a"}), 2)


class TestEntryWeights:
    def test_t1_example(self, t1):
        weights = pg.entry_weights(t1, pg.profile({1: "a", 2: "a"}), 2)
        assert weights == {"a": pg.cost(3), "b": pg.cost(1)}

    def test_alone_everything_is_base_delay(self):
        game = gen_game(3, players=1, resources=3, space_kind="singleton", levels=1)
        state = pg.State({})
        weights = pg.entry_weights(game, state, 1)
        for rid, val in weights.items():
            assert val == game.delay(1, rid, 0, 1)

    def test_weights_match_singleton_deviations(self):
        for seed in range(8):
            game = gen_game(100 + seed, players=3, resources=3, space_kind="singleton")
            for prof in all_profiles(game):
                for p in game.players():
                    weights = pg.entry_weights(game, prof, p)
                    for rid in game.ground_of(p):
                        dev = pg.player_cost(game, prof.with_player(p, {rid}), p)
                        assert weights[rid] == dev

    def test_weight_sums_equal_costs_on_set_strategies(self):
        for seed in range(8):
            game = gen_game(200 + seed, players=3, resources=4, space_kind="mixed")
            for prof in all_profiles(game):
                for p in game.players():
                    weights = pg.entry_weights(game, prof, p)
                    direct = pg.player_cost(game, prof, p)
                    assert sum_costs(weights[r] for r in prof.strategy(p)) == direct

    @SWEEP_KINDS
    def test_weight_sums_price_every_base(self, kw):
        """Summed over any base, a player's weights are that base's exact cost.

        Her weights do not depend on her own strategy, so the solvers read a
        move's cost before and after from one set of weights.
        """
        saw_infinite = False
        for seed in range(4):
            game = gen_game(500 + seed, players=3, resources=4, **kw)
            for prof in all_profiles(game):
                for p in game.players():
                    weights = pg.entry_weights(game, prof, p)
                    for base in game.spaces[p].all_bases():
                        direct = pg.player_cost(game, prof.with_player(p, base), p)
                        assert base_weight(base, weights) == direct
                        saw_infinite |= direct == pg.INFINITY
        if kw.get("model") == "classic":
            assert saw_infinite  # the wrap's +inf is exercised, not only finite sums


class TestBetterResponse:
    def test_t1_examples(self, t1):
        assert pg.is_better_response(t1, pg.profile({1: "a", 2: "a"}), 2, "b")
        assert not pg.is_better_response(t1, pg.profile({1: "a", 2: "a"}), 2, "a")
        assert not pg.is_better_response(t1, pg.profile({1: "a", 2: "b"}), 1, "b")

    def test_strategy_outside_space_rejected(self, t1):
        game = pg.build_game(
            n_players=1,
            resources=["a", "b"],
            spaces={1: pg.SingletonSpace(["a"])},
            priorities=pg.PriorityFunction({"a": {1: 1}, "b": {1: 1}}),
            delays={r: pg.table_from_function(lambda x, y: x + y, 2) for r in ("a", "b")},
        )
        with pytest.raises(pg.ValidationFailed):
            pg.is_better_response(game, pg.profile({1: "a"}), 1, "b")

    @SWEEP_KINDS
    def test_queries_match_the_naive_scan(self, kw):
        """best_response, has_better_response and is_better_response against
        the cost of every deviation, each priced on its own state."""
        saw_move = saw_infinite = False
        for seed in range(4):
            game = gen_game(600 + seed, players=3, resources=4, **kw)
            for prof in all_profiles(game):
                for p in game.players():
                    cost = {
                        base: pg.player_cost(game, prof.with_player(p, base), p)
                        for base in game.spaces[p].all_bases()
                    }
                    current = prof.strategy(p)
                    better = {b for b, c in cost.items() if c < cost[current]}
                    br = pg.best_response(game, prof, p)
                    assert pg.has_better_response(game, prof, p) == bool(better)
                    if better:
                        assert cost[br] == min(cost.values()) and br in better
                    else:
                        assert br == current
                    for base in cost:
                        assert pg.is_better_response(game, prof, p, base) == (base in better)
                    saw_move |= bool(better)
                    saw_infinite |= pg.INFINITY in cost.values()
        assert saw_move
        if kw.get("model") == "classic":
            assert saw_infinite


class TestIsPureNash:
    def test_t1_equilibria(self, t1):
        assert pg.is_pure_nash(t1, pg.profile({1: "a", 2: "b"}))
        assert not pg.is_pure_nash(t1, pg.profile({1: "a", 2: "a"}))
        assert not pg.is_pure_nash(t1, pg.profile({1: "b", 2: "b"}))

    def test_matches_oracle_on_random_games(self):
        for seed in range(15):
            game = gen_game(300 + seed, players=3, resources=3, space_kind="mixed")
            for prof in all_profiles(game):
                assert pg.is_pure_nash(game, prof) == _profile_is_pne_naive(game, prof)

    def test_infinite_cost_equilibrium_is_legal(self):
        game = pg.build_game(
            n_players=2,
            resources=["e"],
            spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
            priorities=pg.PriorityFunction({"e": {1: 1, 2: 2}}),
            delays={"e": pg.ClassicDelay(values=(pg.cost(1), pg.cost(2)))},
        )
        prof = pg.profile({1: "e", 2: "e"})
        assert pg.player_cost(game, prof, 2) == pg.INFINITY
        assert pg.is_pure_nash(game, prof)


def test_monotone_displacement():
    """Adding a player to a resource never lowers anyone else's cost there."""
    rng = random.Random(5)
    for seed in range(10):
        game = gen_game(400 + seed, players=4, resources=3, space_kind="singleton")
        profs = list(all_profiles(game))
        for prof in rng.sample(profs, min(10, len(profs))):
            for joiner in game.players():
                for rid in game.ground_of(joiner):
                    moved = prof.with_player(joiner, {rid})
                    for other in game.players():
                        if other == joiner or rid not in prof.strategy(other):
                            continue
                        before = pg.player_cost(game, prof, other)
                        after = pg.player_cost(game, moved, other)
                        if rid in prof.strategy(joiner):
                            assert after == before
                        else:
                            assert before <= after


def test_state_identity_helpers():
    t1 = make_t1()
    s = pg.State({1: "a"})
    assert s.covers(1) and not s.covers(2)
    full = s.with_player(2, "b")
    assert full.is_full(t1)
    assert full.without_player(2) == s
    assert pg.State({1: ["a"]}) == s
    assert len({s, pg.State({1: "a"})}) == 1

import io
from pathlib import Path

import pytest

import prioritygames as pg
from conftest import gen_game, make_t1_consistent
from prioritygames import dynamics
from prioritygames.oracle import _profile_is_pne_naive
from prioritygames.traceio import read_trace_csv, trace_to_csv_text

DATA = Path(__file__).parent / "data"


def constant_table(value, bound=3):
    return pg.table_from_function(lambda x, y: value, bound)


def b1_forcing_game() -> pg.Game:
    """Inserting player 2 onto e makes equal-priority player 1 want to leave."""
    d1e = pg.TableDelay(
        entries={
            (0, 1): pg.cost(1),
            (0, 2): pg.cost(5),
            (0, 3): pg.cost(5),
            (1, 1): pg.cost(9),
            (1, 2): pg.cost(9),
            (2, 1): pg.cost(9),
        },
        bound=3,
    )
    return pg.build_game(
        n_players=2,
        resources=["e", "f"],
        spaces={1: pg.SingletonSpace(["e", "f"]), 2: pg.SingletonSpace(["e", "f"])},
        priorities=pg.PriorityFunction.uniform(["e", "f"], {1: 1, 2: 1}),
        delays={
            "e": pg.PerPlayerDelay(specs={1: d1e, 2: constant_table(1)}),
            "f": pg.PerPlayerDelay(specs={1: constant_table(2), 2: constant_table(9)}),
        },
    )


class TestBestResponse:
    def test_t1_example(self, t1):
        assert pg.best_response(t1, pg.profile({1: "a", 2: "a"}), 2) == {"b"}

    def test_keeps_current_when_tied_optimal(self, t1):
        prof = pg.profile({1: "a", 2: "b"})
        assert pg.best_response(t1, prof, 1) == {"a"}

    def test_uniform_rank_two(self):
        game = pg.build_game(
            n_players=1,
            resources=["a", "b", "c"],
            spaces={1: pg.UniformMatroid(["a", "b", "c"], 2)},
            priorities=pg.PriorityFunction({r: {1: 1} for r in "abc"}),
            delays={"a": constant_table(3), "b": constant_table(1), "c": constant_table(2)},
        )
        assert pg.best_response(game, pg.profile({1: {"a", "b"}}), 1) == {"b", "c"}


class TestRunDynamics:
    def test_t1_round_robin(self, t1):
        final, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}))
        assert trace.status == "Converged"
        assert len(trace.steps) == 1
        assert final == pg.profile({1: "a", 2: "b"})
        assert trace.steps[0].player == 2

    def test_pne_start_zero_steps(self, t1):
        final, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "b"}))
        assert trace.status == "Converged" and trace.steps == []

    def test_cap_zero(self, t1):
        final, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}), cap=0)
        assert trace.status == "CapReached" and trace.steps == []

    @pytest.mark.parametrize("policy", ["roundrobin", "first", "best"])
    def test_policies_converge_to_pne(self, policy):
        for seed in range(8):
            game = gen_game(500 + seed, players=3, resources=3, space_kind="mixed")
            start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
            final, trace = pg.run_dynamics(game, start, policy=policy, cap=5000)
            assert trace.status == "Converged"
            assert pg.is_pure_nash(game, final)
            for step in trace.steps:
                assert step.cost_after < step.cost_before

    def test_matroid_moves_are_single_swaps(self):
        game = pg.build_game(
            n_players=1,
            resources=["a", "b", "c", "d"],
            spaces={1: pg.UniformMatroid(["a", "b", "c", "d"], 2)},
            priorities=pg.PriorityFunction({r: {1: 1} for r in "abcd"}),
            delays={
                "a": constant_table(5),
                "b": constant_table(5),
                "c": constant_table(1),
                "d": constant_table(1),
            },
        )
        final, trace = pg.run_dynamics(game, pg.profile({1: {"a", "b"}}))
        assert final == pg.profile({1: {"c", "d"}})
        assert len(trace.steps) == 2
        previous = frozenset({"a", "b"})
        for step in trace.steps:
            assert len(previous - step.to) == 1 and len(step.to - previous) == 1
            assert step.cost_after < step.cost_before
            previous = step.to

    def test_bad_policy_rejected(self, t1):
        with pytest.raises(ValueError):
            pg.run_dynamics(t1, pg.profile({1: "a", 2: "b"}), policy="zigzag")

    @pytest.mark.parametrize("policy", ["roundrobin", "first", "best"])
    def test_negative_cap_rejected(self, t1, policy):
        with pytest.raises(ValueError, match="cap"):
            pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}), policy=policy, cap=-1)
        # a zero cap is still a status, not an error
        _, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}), policy=policy, cap=0)
        assert trace.status == "CapReached" and trace.steps == []

    def test_infinite_plateau_move_recorded_whole(self):
        # both of player 1's resources cost infinity (a better-ranked player
        # holds them), so no single swap strictly improves; the move must be
        # recorded as one step that still strictly decreases her cost
        game = pg.build_game(
            n_players=2,
            resources=["e", "f", "g", "h"],
            spaces={
                1: pg.UniformMatroid(["e", "f", "g", "h"], 2),
                2: pg.ExplicitSpace([["e", "f"]]),
            },
            priorities=pg.PriorityFunction(
                {"e": {1: 2, 2: 1}, "f": {1: 2, 2: 1}, "g": {1: 1, 2: 9}, "h": {1: 1, 2: 9}}
            ),
            delays={r: pg.ClassicDelay(values=(pg.cost(1), pg.cost(2))) for r in "efgh"},
        )
        start = pg.profile({1: {"e", "f"}, 2: {"e", "f"}})
        assert pg.player_cost(game, start, 1) == pg.INFINITY
        final, trace = pg.run_dynamics(game, start)
        assert trace.status == "Converged"
        assert final.strategy(1) == {"g", "h"}
        assert len(trace.steps) == 1
        assert trace.steps[0].cost_before == pg.INFINITY
        assert trace.steps[0].cost_after < pg.INFINITY
        assert pg.certify_trace(game, trace).ok


class TestLayeredSolver:
    def test_consistent_t1(self):
        game = make_t1_consistent()
        final, trace = pg.solve_consistent_layered(game)
        assert final == pg.profile({1: "a", 2: "b"})
        assert pg.is_pure_nash(game, final)
        assert final in pg.brute_force_pne(game)

    def test_single_layer_plain_descent(self):
        game = gen_game(42, players=3, resources=3, space_kind="singleton", levels=1)
        final, trace = pg.solve_consistent_layered(game)
        assert pg.is_pure_nash(game, final)

    def test_affine_two_layers(self):
        src = gen_game(43, players=3, resources=2, space_kind="singleton", model="affine")
        final, trace = pg.solve_consistent_layered(src)
        assert pg.is_pure_nash(src, final)
        assert final in pg.brute_force_pne(src)

    def test_inconsistent_rejected(self, t1):
        with pytest.raises(pg.InconsistentPrioritiesError):
            pg.solve_consistent_layered(t1)

    def test_player_specific_layers(self):
        for seed in range(6):
            game = gen_game(
                600 + seed,
                players=3,
                resources=3,
                space_kind="singleton",
                consistent=True,
                player_specific=True,
                levels=2,
            )
            final, trace = pg.solve_consistent_layered(game)
            assert _profile_is_pne_naive(game, final)

    def test_mixed_spaces_oracle_check(self):
        for seed in range(6):
            game = gen_game(
                700 + seed, players=3, resources=3, space_kind="mixed", consistent=True, levels=2
            )
            final, trace = pg.solve_consistent_layered(game)
            assert pg.is_pure_nash(game, final)
            report = pg.certify_trace(game, trace)
            assert report.ok, report.summary()

    def test_classic_delays_with_infinite_entries(self):
        # acceptance-style sweep over consistent games whose wrapped delays
        # hit the infinite branch as soon as a better-ranked player shares
        for seed in range(8):
            game = gen_game(
                750 + seed,
                players=3,
                resources=3,
                space_kind="singleton",
                model="classic",
                consistent=True,
                levels=2,
            )
            final, trace = pg.solve_consistent_layered(game)
            assert pg.is_pure_nash(game, final)
            assert final in pg.brute_force_pne(game)

    def test_shared_layer_potential_must_drop(self, monkeypatch):
        # seed 41: greedy placement leaves one layer move, which a layer's
        # LevelRun summing to a constant would record without a drop
        game = gen_game(41, players=4, resources=3, space_kind="singleton", consistent=True, levels=2)
        _, trace = pg.solve_consistent_layered(game)
        assert any(s.frm is not None for s in trace.steps)
        flat = pg.potentials.ScalarPotential(value=pg.cost(0))
        monkeypatch.setattr(pg.potentials.LevelRun, "_merge", lambda run: flat)
        with pytest.raises(pg.InvariantViolatedError, match="potential did not drop"):
            pg.solve_consistent_layered(game)

    # tests/data/layer_*_s<s>.json come from a sweep of consistent
    # player-specific generator instances: GenParams(players=2+s%7,
    # resources=2+s%5, space_kind=k, consistent=True, player_specific=True,
    # levels=1+s%3) at seed s.  The exhausted one is exercised in
    # tests/test_cli.py.

    def test_layer_restart_converges(self, monkeypatch):
        # s=27, explicit spaces, one level of 8 players: dynamics from the
        # greedy start (attempt 0) run past the step cap; the first
        # restart converges
        game = pg.parse_instance((DATA / "layer_restart_s27.json").read_bytes())
        final, trace = pg.solve_consistent_layered(game)
        report = pg.certify_trace(game, trace)
        assert report.ok, report.summary()
        pne = pg.brute_force_pne(game)
        assert len(pne) == 3 and final in pne
        monkeypatch.setattr(dynamics, "LAYER_RESTARTS", 1)
        assert pg.solve_consistent_layered(game)[0] == final
        monkeypatch.setattr(dynamics, "LAYER_RESTARTS", 0)
        with pytest.raises(pg.LayerCapExhaustedError):
            pg.solve_consistent_layered(game)


class TestInsertionSolver:
    def test_t1_run(self, t1):
        final, trace = pg.solve_insertion(t1)
        assert final == pg.profile({1: "a", 2: "b"})
        stats = pg.count_steps(trace)
        assert stats.placements == 2 and stats.discards == 0
        assert [s.phase for s in trace.steps] == ["insert", "insert"]

    def test_single_player(self):
        game = gen_game(44, players=1, resources=3, space_kind="singleton")
        final, trace = pg.solve_insertion(game)
        assert pg.count_steps(trace).placements == 1
        assert pg.is_pure_nash(game, final)

    def test_case_b1_discard_and_reinsert(self):
        game = b1_forcing_game()
        final, trace = pg.solve_insertion(game)
        stats = pg.count_steps(trace)
        assert stats.discards == 1
        assert final == pg.profile({1: "f", 2: "e"})
        assert _profile_is_pne_naive(game, final)
        discard = [s for s in trace.steps if s.to is None]
        assert discard[0].player == 1

    def test_dead_ground_elements_never_chosen(self):
        # a rank-1 partition matroid with a zero cap: resource d is in the
        # ground set but {d} is not a strategy, so insertion (and the
        # tolerance scan) must ignore it even though d looks free
        space = pg.PartitionMatroid([["a", "b"], ["d"]], [1, 0])
        cheap_d = {
            r: pg.table_from_function(lambda x, y: 5 * x + 5 * y if r != "d" else 0, 3)
            for r in ("a", "b", "d")
        }
        game = pg.build_game(
            n_players=2,
            resources=["a", "b", "d"],
            spaces={1: space, 2: space},
            priorities=pg.PriorityFunction.uniform(["a", "b", "d"], {1: 1, 2: 2}),
            delays=cheap_d,
        )
        assert game.is_singleton_game()
        final, trace = pg.solve_insertion(game)
        for p in (1, 2):
            assert final.strategy(p) != {"d"}
        assert pg.is_pure_nash(game, final)
        # the unreachable free resource must not cap the tolerance at 0;
        # the real ceiling is b's entry delay 5, beaten first at y = 2
        assert pg.tol_value(game, pg.State({1: "a"}), 1) == 1

    def test_non_singleton_rejected(self):
        game = pg.build_game(
            n_players=1,
            resources=["a", "b"],
            spaces={1: pg.UniformMatroid(["a", "b"], 2)},
            priorities=pg.PriorityFunction({"a": {1: 1}, "b": {1: 1}}),
            delays={r: constant_table(1) for r in ("a", "b")},
        )
        with pytest.raises(pg.NotSingletonError):
            pg.solve_insertion(game)

    def test_random_player_specific_instances(self):
        for seed in range(8):
            game = gen_game(
                800 + seed,
                players=4,
                resources=3,
                space_kind="singleton",
                player_specific=True,
                levels=3,
            )
            final, trace = pg.solve_insertion(game)
            assert _profile_is_pne_naive(game, final)
            report = pg.certify_trace(game, trace)
            assert report.ok, report.summary()

    def test_multi_eviction_rebalance_round(self):
        # a double same-level eviction thins a resource faster than the
        # newcomer fills it; a player elsewhere then prefers it and must be
        # re-queued (rebalance), after which the run still ends at a
        # certified equilibrium
        game = gen_game(
            40017, players=8, resources=6, space_kind="singleton", levels=2
        )
        final, trace = pg.solve_insertion(game)
        stats = pg.count_steps(trace)
        assert stats.by_phase.get("rebalance", 0) >= 1
        assert _profile_is_pne_naive(game, final)
        report = pg.certify_trace(game, trace)
        assert report.ok, report.summary()

    def test_rebalance_fixture_trace(self):
        # n=6, both players may use r0 and r1, shared affine delays.  In
        # round 5 newcomer 6 lands on r1 and evicts players 2 and 4 (case
        # B2); player 3, sitting on r0, then sees r1 at (x=1, y=1) instead of
        # (x=1, y=2) and is rebalanced.  The smallest known instance where
        # the stray is not a resident of the newcomer's resource.
        game = pg.parse_instance((DATA / "rebalance_n6.json").read_bytes())
        final, trace = pg.solve_insertion(game)
        rows = [(s.round, s.phase, s.player, s.potential) for s in trace.steps]
        assert rows == [
            (0, "insert", 1, "phi=0,0,0,0|1,0,0;tol=1"),
            (1, "insert", 2, "phi=0,0,1,0|1,0,0;tol=5"),
            (2, "insert", 3, "phi=0,0,1,0|1,0,1;tol=6"),
            (3, "insert", 4, "phi=0,0,1,1|1,0,1;tol=9"),
            (4, "insert", 5, "phi=0,0,1,1|1,0,2;tol=12"),
            (5, "insert", 6, "phi=1,0,1,1|1,0,2;tol=15"),
            (5, "discard", 2, "phi=1,0,0,1|1,0,2;tol=11"),
            (5, "discard", 4, "phi=1,0,0,0|1,0,2;tol=6"),
            (5, "rebalance", 3, "phi=1,0,0,0|1,0,1;tol=5"),
            (6, "insert", 2, "phi=1,0,0,0|1,1,1;tol=5"),
            (6, "discard", 5, "phi=1,0,0,0|1,1,0;tol=5"),
            (7, "insert", 4, "phi=1,0,0,1|1,1,0;tol=8"),
            (8, "insert", 3, "phi=1,0,0,2|1,1,0;tol=11"),
            (9, "insert", 5, "phi=1,0,0,2|1,1,1;tol=14"),
        ]
        assert trace.steps[8].frm == frozenset({"r0"})
        assert _profile_is_pne_naive(game, final)
        report = pg.certify_trace(game, trace)
        assert report.ok, report.summary()


class TestCountSteps:
    def test_layered_t1(self):
        game = make_t1_consistent()
        _, trace = pg.solve_consistent_layered(game)
        stats = pg.count_steps(trace)
        assert stats.placements == 2 and stats.discards == 0
        assert stats.by_phase == {"layer:1": 1, "layer:2": 1}

    def test_empty_trace(self, t1):
        _, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "b"}))
        stats = pg.count_steps(trace)
        assert stats.total == 0 and stats.rounds == 0

    def test_b1_trace(self):
        _, trace = pg.solve_insertion(b1_forcing_game())
        assert pg.count_steps(trace).discards == 1


def test_layer_restart_keeps_round_numbers_contiguous():
    # the failed attempt's rows are dropped, and so are its round numbers
    game = pg.parse_instance((DATA / "layer_restart_s27.json").read_bytes())
    _, trace = pg.solve_consistent_layered(game)
    assert [s.round for s in trace.steps] == list(range(13))
    # the numbering a CSV round trip gives
    back = read_trace_csv(io.StringIO(trace_to_csv_text(trace)))
    assert [s.round for s in back.steps] == list(range(13))

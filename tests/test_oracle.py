import pytest

import prioritygames as pg
from conftest import gen_game, make_t1_consistent


class TestEnumerateProfiles:
    def test_t1_four_profiles(self, t1):
        profs = list(pg.enumerate_profiles(t1))
        assert len(profs) == 4
        assert len(set(profs)) == 4

    def test_uniform_rank_two_counts(self):
        game = pg.build_game(
            n_players=3,
            resources=["a", "b", "c"],
            spaces={i: pg.UniformMatroid(["a", "b", "c"], 2) for i in (1, 2, 3)},
            priorities=pg.PriorityFunction({r: {1: 1, 2: 1, 3: 1} for r in "abc"}),
            delays={r: pg.table_from_function(lambda x, y: x + y, 3) for r in "abc"},
        )
        assert sum(1 for _ in pg.enumerate_profiles(game)) == 27

    def test_budget_exceeded_after_two(self, t1):
        budget = pg.EnumerationBudget(max_profiles=2)
        stream = pg.enumerate_profiles(t1, budget)
        assert next(stream) is not None
        assert next(stream) is not None
        with pytest.raises(pg.BudgetExceededError):
            next(stream)
        assert budget.observed == 3

    def test_id_lexicographic_order(self, t1):
        profs = list(pg.enumerate_profiles(t1))
        keys = [tuple(sorted(p.strategy(i)) for i in (1, 2)) for p in profs]
        assert keys == sorted(keys)


class TestBruteForcePne:
    def test_t1(self, t1):
        pnes = pg.brute_force_pne(t1)
        assert set(pnes) == {pg.profile({1: "a", 2: "b"}), pg.profile({1: "b", 2: "a"})}

    def test_consistent_variant_contains_ab(self):
        game = make_t1_consistent()
        assert pg.profile({1: "a", 2: "b"}) in pg.brute_force_pne(game)

    def test_classic_two_player_split(self):
        cg = pg.build_classic_game(
            n_players=2,
            resources=["a", "b"],
            spaces={1: pg.SingletonSpace(["a", "b"]), 2: pg.SingletonSpace(["a", "b"])},
            priorities=pg.PriorityFunction.constant(["a", "b"], [1, 2]),
            values={r: (pg.cost(1), pg.cost(2)) for r in ("a", "b")},  # d(y) = y
        )
        game = pg.reduce_classic_to_priority(cg)
        pnes = pg.brute_force_pne(game)
        assert set(pnes) == {pg.profile({1: "a", 2: "b"}), pg.profile({1: "b", 2: "a"})}

    def test_agrees_with_is_pure_nash(self):
        for seed in range(10):
            game = gen_game(1100 + seed, players=3, resources=3, space_kind="mixed")
            expected = {p for p in pg.enumerate_profiles(game) if pg.is_pure_nash(game, p)}
            assert set(pg.brute_force_pne(game)) == expected


class TestCertifyTrace:
    def test_clean_insertion_trace(self, t1):
        final, trace = pg.solve_insertion(t1)
        report = pg.certify_trace(t1, trace)
        assert report.ok
        assert "no violations" in report.summary()

    def test_corrupted_cost_detected_at_step(self, t1):
        final, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}))
        assert len(trace.steps) == 1
        step = trace.steps[0]
        step.cost_after = step.cost_before + pg.cost(1)  # force a non-decrease
        report = pg.certify_trace(t1, trace)
        assert not report.ok
        assert any(
            v.step == 0 and v.code in ("COST_AFTER_MISMATCH", "NOT_IMPROVING")
            for v in report.violations
        )

    def test_corrupted_final_detected(self, t1):
        final, trace = pg.solve_insertion(t1)
        trace.final = pg.profile({1: "b", 2: "a"})
        report = pg.certify_trace(t1, trace)
        assert any(v.code == "FINAL_MISMATCH" for v in report.violations)

    def test_unknown_strategy_stops_replay_cleanly(self, t1):
        final, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}))
        trace.steps[0].to = frozenset({"zzz"})  # off the game's vocabulary
        report = pg.certify_trace(t1, trace)
        assert not report.ok
        assert any(v.code == "BAD_STRATEGY" and v.step == 0 for v in report.violations)

    def test_nonequilibrium_final_detected(self, t1):
        _, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}), cap=0)
        trace.status = "Converged"  # claim convergence falsely
        report = pg.certify_trace(t1, trace)
        assert any(v.code == "NOT_EQUILIBRIUM" for v in report.violations)

    def test_layered_trace_on_affine_instance(self):
        game = gen_game(1200, players=3, resources=2, space_kind="singleton", model="affine")
        final, trace = pg.solve_consistent_layered(game)
        report = pg.certify_trace(game, trace)
        assert report.ok, report.summary()


@pytest.mark.parametrize("player_specific", [False, True])
def test_malformed_layer_phase_is_a_violation(player_specific):
    game = gen_game(
        3, players=6, resources=3, levels=2, consistent=True, player_specific=player_specific
    )
    _, trace = pg.solve_consistent_layered(game)
    assert pg.certify_trace(game, trace).ok
    bad = next(s for s in trace.steps if s.phase == "layer:1")
    bad.phase = "layer:x"
    report = pg.certify_trace(game, trace)
    assert [(v.step, v.code) for v in report.violations] == [(bad.index, "BAD_PHASE")]


def test_existence_small_sweep():
    for seed in range(10):
        game = gen_game(1300 + seed, players=3, resources=3, space_kind="singleton", levels=3)
        assert pg.brute_force_pne(game), f"no equilibrium at seed {seed}"
    for seed in range(6):
        game = gen_game(
            1400 + seed, players=3, resources=3, space_kind="mixed", consistent=True, levels=2
        )
        assert pg.brute_force_pne(game), f"no equilibrium at consistent seed {seed}"

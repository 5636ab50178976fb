from dataclasses import replace

import pytest

import prioritygames as pg
from conftest import gen_game, make_t1, make_t1_consistent


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



CAP = pg.dynamics.CAP_REACHED


def replayed(game, kind, start, rows, status=pg.dynamics.CONVERGED):
    """A clean trace of ``rows`` of (phase, player, to), where ``to`` is a
    resource id or None for a discard, each row a round of its own, with
    costs recomputed and the potential column blank (blank cells are not
    compared)."""
    trace = pg.MoveTrace(kind=kind, start=pg.State(start), status=status)
    state = trace.start
    for index, (phase, player, to) in enumerate(rows):
        frm = state.strategy(player) if state.covers(player) else None
        before = None if frm is None else pg.player_cost(game, state, player)
        state = state.without_player(player) if to is None else state.with_player(player, to)
        after = None if to is None else pg.player_cost(game, state, player)
        to = None if to is None else frozenset([to])
        trace.steps.append(pg.TraceStep(index, index, phase, player, frm, to, before, after, ""))
    trace.final = state
    return trace


def _set(obj, **fields):
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


def br_move(game):
    """``run_dynamics`` on T1 from both on a: player 2 moves a -> b, cost 3 -> 1."""
    _, trace = pg.run_dynamics(game, pg.profile({1: "a", 2: "a"}))
    assert [(s.player, s.cost_before, s.cost_after) for s in trace.steps] == [
        (2, pg.cost(3), pg.cost(1))
    ]
    return trace


def first_row(trace, **fields):
    _set(trace.steps[0], **fields)
    return trace


def corrupt_row(**fields):
    """``br_move`` with its one row's fields overwritten."""
    return lambda g: first_row(br_move(g), **fields)


def lex_tie(phase):
    """A discard, then the same placement: the full states' lex potentials tie."""
    rows = [("br", 2, None), (phase, 2, "a")]
    return lambda g: replayed(g, "br", {1: "a", 2: "a"}, rows, CAP)


def layer_moves(phase):
    """Player 1 (level 1) moves between two empty resources (a -> b) in
    ``phase``: neither her cost nor the level-1 potential drops; with
    ``phase`` ``layer:x`` she then moves back (b -> a) in level 1's phase,
    which starts the layer's run afresh."""
    rows = [("layer:1", 1, "a"), (phase, 1, "b")]
    if phase != "layer:1":
        rows.append(("layer:1", 1, "a"))
    return lambda g: replayed(g, "layered", {}, rows, CAP)


def insertion_loss(phase):
    """Round 2 discards player 2: the insertion potential falls."""
    rows = [("insert", 1, "a"), ("insert", 2, "b"), (phase, 2, None)]
    return lambda g: replayed(g, "insertion", {}, rows, CAP)


# (game, trace builder, expected (step, code[, message]) list); T1 has
# shared delays and per-resource priorities, its consistent twin layers
CERTIFY_CASES = {
    "bad-start": (
        make_t1,
        lambda g: replayed(g, "br", {1: "zzz", 2: "a"}, []),
        [(-1, "BAD_START")],
    ),
    "unknown-player": (make_t1, corrupt_row(player=9), [(0, "UNKNOWN_PLAYER", "player 9")]),
    "from-mismatch": (
        make_t1,
        corrupt_row(frm=frozenset("b")),
        [(0, "FROM_MISMATCH", "recorded b, replay has a")],
    ),
    "cost-before-recomputed": (
        make_t1,
        corrupt_row(cost_before=pg.cost(4)),
        [(0, "COST_BEFORE_MISMATCH", "recorded 4/1, recomputed 3/1")],
    ),
    "cost-before-of-unplaced": (
        make_t1,
        lambda g: first_row(replayed(g, "br", {1: "a"}, [("br", 2, "b")]), cost_before=pg.cost(1)),
        [(0, "COST_BEFORE_MISMATCH", "unplaced player has no cost")],
    ),
    "cost-after-recomputed": (
        make_t1,
        corrupt_row(cost_after=pg.cost(2)),
        [(0, "COST_AFTER_MISMATCH", "recorded 2/1, recomputed 1/1")],
    ),
    "cost-after-of-discarded": (
        make_t1,
        lambda g: first_row(
            replayed(g, "br", {1: "a", 2: "a"}, [("br", 2, None)], CAP),
            cost_after=pg.cost(1),
        ),
        [(0, "COST_AFTER_MISMATCH", "discarded player has no cost")],
    ),
    "bad-strategy": (
        make_t1,
        corrupt_row(to=frozenset(["zzz"]), cost_after=pg.cost(7)),
        [(0, "BAD_STRATEGY", "zzz outside the space")],
    ),
    "not-improving-recorded": (
        make_t1,
        corrupt_row(cost_after=pg.cost(3)),
        [
            (0, "COST_AFTER_MISMATCH", "recorded 3/1, recomputed 1/1"),
            (0, "NOT_IMPROVING", "recorded costs do not drop"),
        ],
    ),
    "not-improving-recomputed": (
        make_t1,
        # the recorded costs match replay (1 -> 1); T1 has no layered potential
        lambda g: replayed(g, "layered", {1: "a", 2: "a"}, [("br", 1, "b")], CAP),
        [
            (0, "NOT_IMPROVING", "recorded costs do not drop"),
            (0, "NOT_IMPROVING", "recomputed costs do not drop"),
            (0, "BAD_PHASE", "phase 'br' is foreign to layered traces"),
        ],
    ),
    "bad-phase": (
        make_t1,
        corrupt_row(phase="layer:"),
        [(0, "BAD_PHASE", "malformed layer phase 'layer:'")],
    ),
    "bad-phase-leading-zero": (
        make_t1,
        corrupt_row(phase="layer:01"),
        [(0, "BAD_PHASE", "malformed layer phase 'layer:01'")],
    ),
    "phase-foreign-to-br": (
        make_t1,
        corrupt_row(phase="insert"),
        [(0, "BAD_PHASE", "phase 'insert' is foreign to br traces")],
    ),
    "phase-foreign-to-insertion": (
        make_t1,
        lambda g: replayed(g, "insertion", {}, [("insert", 1, "a"), ("br", 2, "b")], CAP),
        [(1, "BAD_PHASE", "phase 'br' is foreign to insertion traces")],
    ),
    "potential-mismatch": (
        make_t1,
        corrupt_row(potential="0/1@1;1/1@1"),
        [(0, "POTENTIAL_MISMATCH", "recorded '0/1@1;1/1@1', recomputed '1/1@1;1/1@1'")],
    ),
    "lex-not-decreasing": (
        make_t1,
        lex_tie("br"),
        [(1, "POTENTIAL_NOT_DECREASING", "lexicographic potential")],
    ),
    "lex-not-decreasing-after-bad-phase": (
        make_t1,
        lex_tie("layer:x"),
        [(1, "BAD_PHASE"), (1, "POTENTIAL_NOT_DECREASING", "lexicographic potential")],
    ),
    "layer-not-decreasing": (
        make_t1_consistent,
        layer_moves("layer:1"),
        [
            (1, "NOT_IMPROVING"),
            (1, "NOT_IMPROVING"),
            (1, "POTENTIAL_NOT_DECREASING", "level 1 scalar potential"),
        ],
    ),
    "layer-restarts-after-bad-phase": (
        make_t1_consistent,
        layer_moves("layer:x"),
        [
            (1, "NOT_IMPROVING"),
            (1, "NOT_IMPROVING"),
            (1, "BAD_PHASE"),
            (2, "NOT_IMPROVING"),
            (2, "NOT_IMPROVING"),
        ],
    ),
    "layer-of-another-level": (
        make_t1_consistent,
        lambda g: replayed(g, "layered", {}, [("layer:1", 1, "a"), ("layer:1", 2, "b")], CAP),
        [(1, "BAD_PHASE", "player 2 of level 2 moves in layer 1")],
    ),
    "layer-on-inconsistent-game": (
        make_t1,
        lambda g: replayed(g, "layered", {}, [("layer:7", 1, "a"), ("layer:7", 2, "b")], CAP),
        [
            (0, "BAD_PHASE", "layer 7 on a game without consistent priorities"),
            (1, "BAD_PHASE", "layer 7 on a game without consistent priorities"),
        ],
    ),
    "layer-goes-back-down": (
        make_t1_consistent,
        lambda g: replayed(g, "layered", {}, [("layer:2", 2, "a"), ("layer:1", 1, "b")], CAP),
        [(1, "BAD_PHASE", "layer 1 after layer 2")],
    ),
    "insertion-not-increasing": (
        make_t1,
        insertion_loss("discard"),
        [(2, "POTENTIAL_NOT_INCREASING", "insertion potential did not rise across round 2")],
    ),
    "insertion-rebalance-exempt": (make_t1, insertion_loss("rebalance"), []),
    "incentive-broken": (
        make_t1,
        lambda g: replayed(g, "insertion", {}, [("insert", 1, "a"), ("insert", 2, "a")], CAP),
        [(1, "INCENTIVE_BROKEN", "player 2 has a better response after round 1")],
    ),
    "final-mismatch": (
        make_t1,
        lambda g: _set(br_move(g), final=pg.profile({1: "b", 2: "a"})),
        [(-1, "FINAL_MISMATCH", "recorded final state differs from replay")],
    ),
    "partial-final": (
        make_t1,
        lambda g: replayed(g, "br", {1: "a"}, []),
        [(-1, "PARTIAL_FINAL", "converged run left players unplaced")],
    ),
    "not-equilibrium": (
        make_t1,
        lambda g: replayed(g, "br", {1: "a", 2: "a"}, []),
        [(-1, "NOT_EQUILIBRIUM", "final profile is not a pure Nash equilibrium")],
    ),
}


@pytest.mark.parametrize("case", sorted(CERTIFY_CASES))
def test_each_violation_code_is_found(case):
    make_game, build, expected = CERTIFY_CASES[case]
    game = make_game()
    found = [(v.step, v.code, v.message) for v in pg.certify_trace(game, build(game)).violations]
    assert [f[: len(e)] for f, e in zip(found, expected)] == expected
    assert len(found) == len(expected)


def test_insertion_rounds_come_from_the_phases():
    """Every row but a discard or a rebalance opens a round, whatever its
    ``round`` field reads: T1's rows "place 1 on a, place 2 on a, move 2 to
    b" numbered 0, 0, 0 report the INCENTIVE_BROKEN they do numbered 0, 1, 2."""
    game = make_t1()
    rows = [("insert", 1, "a"), ("insert", 2, "a"), ("insert", 2, "b")]
    numbered = replayed(game, "insertion", {}, rows)
    assert [s.round for s in numbered.steps] == [0, 1, 2]
    for trace in (numbered, replace(numbered, steps=[replace(s, round=0) for s in numbered.steps])):
        found = [(v.step, v.code) for v in pg.certify_trace(game, trace).violations]
        assert found == [(1, "INCENTIVE_BROKEN")]


# a player-specific consistent game: certify applies no potential rule to
# its layered trace, so only the check of each row's layer against the
# mover's level sees a relabelled one
RELABELS = {"all-layer-1": lambda q: 1, "layer-99": lambda q: 99, "reversed": lambda q: 4 - q}


@pytest.mark.parametrize("edit,count", [("all-layer-1", 4), ("layer-99", 7), ("reversed", 4)])
def test_relabelled_layers_are_bad_phases(edit, count):
    game = gen_game(
        10,
        players=6,
        resources=4,
        space_kind="uniform",
        levels=3,
        consistent=True,
        player_specific=True,
    )
    _, trace = pg.solve_consistent_layered(game)
    assert [s.phase for s in trace.steps] == ["layer:1"] * 3 + ["layer:2"] * 3 + ["layer:3"]
    assert pg.certify_trace(game, trace).ok
    label = {s.index: RELABELS[edit](pg.dynamics.layer_level(s.phase)) for s in trace.steps}
    relabelled = replace(
        trace, steps=[replace(s, phase=f"layer:{label[s.index]}") for s in trace.steps]
    )
    found = pg.certify_trace(game, relabelled).violations
    assert [v.code for v in found] == ["BAD_PHASE"] * count
    assert [v.step for v in found] == [
        s.index for s in trace.steps if game.priorities.level(s.player) != label[s.index]
    ]


@pytest.mark.parametrize("phase", ["br", "insert", "rebalance"])
def test_foreign_phases_in_a_layered_trace_are_bad_phases(phase):
    """The first move row of a clean layered trace, relabelled with another
    kind's phase, on a shared-delay consistent game."""
    game = gen_game(10, players=8, resources=4, space_kind="uniform", levels=2, consistent=True)
    _, trace = pg.solve_consistent_layered(game)
    assert pg.certify_trace(game, trace).ok
    row = next(s for s in trace.steps if s.frm is not None)
    edited = replace(trace, steps=[replace(s, phase=phase) if s is row else s for s in trace.steps])
    found = [(v.step, v.code, v.message) for v in pg.certify_trace(game, edited).violations]
    assert found == [(row.index, "BAD_PHASE", f"phase {phase!r} is foreign to layered traces")]


def test_every_violation_code_has_a_case():
    from test_certify_corpus import CODES

    assert {e[1] for _, _, expected in CERTIFY_CASES.values() for e in expected} == CODES

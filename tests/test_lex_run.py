"""The running lexicographic vector re-derives only changed blocks, and is checked.

``run_dynamics`` and ``certify_trace``'s ``lex`` rule read each row's
potential from a :class:`~prioritygames.potentials.LexRun`, which keeps
every resource's block of pairs beside the level-count row it came from and
re-derives a block only when its row changed.  These tests hold every row
against a fresh ``lex_potential_singleton`` of a freshly built ``State``,
drive a run whose late row brings in a new denominator, show that two
narrower re-derive rules are caught by that audit and by certify, and that
certify's final check catches a drift the rows cannot see, and run both
solvers and certify once at n=320.
"""

import json
from dataclasses import replace

import pytest

import prioritygames as pg
from conftest import gen_game
from test_certify_corpus import GAMES
from test_certify_replay import per_resource_affine
from test_descent import reference_descend
from test_jsonio import desk_families
from test_trace_digests import make_affine_n24
from prioritygames import congestion, dynamics, oracle, potentials
from prioritygames.potentials import LexRun

POLICIES = ("roundrobin", "first", "best")


def infinite_entries() -> pg.Game:
    """Wrapped classical delays: the trapped player's pair is (+inf, 2)."""
    return pg.build_game(
        n_players=2,
        resources=["e", "f"],
        spaces={1: pg.SingletonSpace(["e", "f"]), 2: pg.SingletonSpace(["e", "f"])},
        priorities=pg.PriorityFunction({"e": {1: 1, 2: 2}, "f": {1: 2, 2: 1}}),
        delays={r: pg.ClassicDelay(values=(pg.cost(2), pg.cost(5))) for r in ("e", "f")},
    )


def late_denominator() -> pg.Game:
    """Eight players start on ``a``; the first rows go to ``b``, whose delays,
    like ``a``'s, are halves, and a later row to ``c``, whose are thirds."""
    doc = {
        "version": 1,
        "model": "priority",
        "players": 8,
        "resources": ["a", "b", "c"],
        "strategies": {
            str(i): {"kind": "singleton", "allowed": ["a", "b", "c"]} for i in range(1, 9)
        },
        "priorities": {"per_resource": {r: [1] * 8 for r in ("a", "b", "c")}},
        "delays": {
            "a": {"kind": "affine", "alpha": "1/1", "beta": "0/1"},
            "b": {"kind": "affine", "alpha": "1/1", "beta": "0/1"},
            "c": {"kind": "affine", "alpha": "1/3", "beta": "2/1"},
        },
    }
    return pg.parse_instance(json.dumps(doc))


def lex_games() -> dict[str, pg.Game]:
    games = {
        name: game
        for name, (seed, kw) in GAMES.items()
        if name.startswith("singleton")
        for game in [gen_game(seed, **kw)]
        if not game.player_specific
    }
    games["affine-n24"] = make_affine_n24()
    games["affine-n40"] = per_resource_affine(40, 8)
    games["infinite-entries"] = infinite_entries()
    games["late-denominator"] = late_denominator()
    return games


GAMES_BY_NAME = lex_games()


def first_bases(game: pg.Game) -> pg.State:
    return pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})


def run(name: str, policy: str) -> tuple[pg.Game, pg.MoveTrace]:
    game = GAMES_BY_NAME[name]
    start = first_bases(game)
    if name == "infinite-entries":
        start = pg.profile({1: "e", 2: "e"})  # player 2 is trapped at +inf
    return game, pg.run_dynamics(game, start, policy=policy)[1]


def replayed(trace: pg.MoveTrace) -> list[pg.State]:
    """Each row's state, built fresh from the strategies alone."""
    strategies = dict(trace.start.items())
    states = []
    for step in trace.steps:
        strategies[step.player] = step.to
        states.append(pg.State(dict(strategies)))
    return states


def stale_rows(game: pg.Game, trace: pg.MoveTrace) -> list[int]:
    """The audit: rows whose potential is not a fresh ``lex_potential_singleton``."""
    return [
        step.index
        for step, state in zip(trace.steps, replayed(trace))
        if step.potential != pg.lex_potential_singleton(game, state).canonical()
    ]


def test_the_corpus_holds_the_games_the_audit_needs():
    assert set(GAMES_BY_NAME) >= {"singleton", "singleton-classic", "singleton-affine"}
    for game in GAMES_BY_NAME.values():
        assert game.is_singleton_game() and not game.player_specific


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(GAMES_BY_NAME))
def test_every_row_is_a_fresh_potential(name, policy):
    game, trace = run(name, policy)
    assert trace.steps and trace.status == "Converged"
    assert stale_rows(game, trace) == []
    assert pg.certify_trace(game, trace).ok


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", ["affine-n24", "affine-n40", "infinite-entries"])
def test_states_counted_afresh_give_the_same_rows(monkeypatch, name, policy):
    """``reference_descend`` steps by ``with_player``: every state is counted
    afresh, so every row is compared by equality."""
    _, trace = run(name, policy)
    monkeypatch.setattr(dynamics, "_descend", reference_descend)
    assert run(name, policy)[1] == trace


@pytest.mark.parametrize("policy", ["roundrobin", "best"])
def test_a_late_denominator_rescales_every_block(policy):
    game, trace = run("late-denominator", policy)
    assert stale_rows(game, trace) == [] and pg.certify_trace(game, trace).ok
    lex = LexRun(game)
    lex.at(trace.start)
    scales = []
    for state in replayed(trace):
        vec = lex.at(state)
        scales.append(vec.scale)
        assert vec == pg.lex_potential_singleton(game, state)
        keys = tuple(c.num * (vec.scale // c.den) * vec.width + q for c, q in vec.pairs)
        assert vec.keys == keys  # every block keyed over the new scale
    assert scales[0] == 2 and scales[-1] == 6
    assert scales.index(6) > 0  # the rescale came after the first row


def test_descents_across_a_rescale_compare_by_pairs():
    game, trace = run("late-denominator", "roundrobin")
    lex = LexRun(game)
    lex.at(trace.start)
    vectors = [lex.at(state) for state in replayed(trace)]
    for old, new in zip(vectors, vectors[1:]):
        assert pg.lex_compare(new, old) == pg.LESS
        plain = (replace(new, keys=None), replace(old, keys=None))
        assert pg.lex_compare(*plain) == pg.LESS
    assert len({v.scale for v in vectors}) == 2


def test_no_cost_comparisons_in_keying_sorting_or_comparing(monkeypatch):
    game, trace = run("affine-n24", "roundrobin")
    states = replayed(trace)
    pg.lex_potential_singleton(game, states[-1])  # every delay point priced
    calls = []
    for name in ("__lt__", "__le__", "__eq__", "__ne__", "__gt__", "__ge__"):
        original = getattr(pg.ExtCost, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(pg.ExtCost, name, counted)
    lex = LexRun(game)
    lex.at(trace.start)
    vectors = [lex.at(state) for state in states]
    pairs = [(old, new) for old, new in zip(vectors, vectors[1:]) if old.scale == new.scale]
    verdicts = [pg.lex_compare(new, old) for old, new in pairs]
    assert calls == []
    monkeypatch.undo()
    assert len(pairs) > len(vectors) // 2 and verdicts == [pg.LESS] * len(pairs)


def only_the_destination(self, rid, row, original=LexRun._rederive):
    """Re-derives a block only where the row gained a player."""
    if sum((row or {}).values()) >= sum((self._rows[rid] or {}).values()):
        original(self, rid, row)


def levels_only(self, state, original=LexRun.at):
    """Takes a row that is not the kept one as unchanged when it holds the
    same levels, whatever their counts."""
    counts = congestion.tally(self.game, state)
    for rid, kept in self._rows.items():
        row = counts.get(rid)
        if row is not kept and (row or {}).keys() == (kept or {}).keys():
            self._rows[rid] = row
    return original(self, state)


def identity_only(self, state, original=LexRun.at):
    """Re-derives every block whose row is not the kept object, equal or not
    (an empty resource's row is None, the same object every time)."""
    counts = congestion.tally(self.game, state)
    for rid, kept in self._rows.items():
        if (row := counts.get(rid)) is not kept:
            self._rederive(rid, row)
    return original(self, state)


def count_afresh(monkeypatch) -> None:
    """Solver and certify step by ``with_player``: every state's table is
    counted afresh, and shares no row with the one before."""

    def stepping(game, state, player, strategy):
        if strategy is None:
            return state.without_player(player)
        return state.with_player(player, strategy)

    monkeypatch.setattr(dynamics, "_descend", reference_descend)
    monkeypatch.setattr(oracle, "step_state", stepping)


# (patched LexRun method, replacement, whether the states are counted afresh)
MUTANTS = {
    "only-the-destination": ("_rederive", only_the_destination, False),
    "levels-only-on-fresh-counts": ("at", levels_only, True),
}
CAUGHT_ON = ("affine-n24", "affine-n40")


def blanked(name: str) -> tuple[pg.Game, pg.MoveTrace]:
    game, trace = run(name, "roundrobin")
    return game, replace(trace, steps=[replace(s, potential="") for s in trace.steps])


@pytest.mark.parametrize("name", CAUGHT_ON)
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_narrower_rederive_rule_is_caught(monkeypatch, mutant, name):
    """By the audit of the solver's rows, and by certify with the recorded
    potentials blanked: a stale block lacks or repeats pairs, which certify
    raises at the row."""
    game, blank = blanked(name)
    method, replacement, afresh = MUTANTS[mutant]
    if afresh:
        count_afresh(monkeypatch)
        assert all(stale_rows(*run(name, policy)) == [] for policy in POLICIES)
        assert pg.certify_trace(game, blank).ok
    monkeypatch.setattr(LexRun, method, replacement)
    assert any(stale_rows(*run(name, policy)) for policy in POLICIES)
    with pytest.raises(pg.InvariantViolatedError, match="running lexicographic potential"):
        pg.certify_trace(game, blank)


@pytest.mark.parametrize("policy", POLICIES)
def test_identity_alone_is_exact_on_fresh_counts_but_rederives_every_block(monkeypatch, policy):
    """A fresh table is counted while the last one is still held, so no
    fresh row is a kept row: comparing by identity alone re-derives every
    block, and the equality compare is what keeps each row to the blocks
    of the two resources it changed."""
    game = GAMES_BY_NAME["affine-n40"]
    _, trace = run("affine-n40", policy)
    count_afresh(monkeypatch)
    derived: list[str] = []

    def deriving(game, rid, row, original=potentials._delay_block):
        derived.append(rid)
        return original(game, rid, row)

    monkeypatch.setattr(potentials, "_delay_block", deriving)
    assert run("affine-n40", policy)[1] == trace
    assert len(derived) <= len(game.resources) + 2 * len(trace.steps)
    derived.clear()
    monkeypatch.setattr(LexRun, "at", identity_only)
    assert run("affine-n40", policy)[1] == trace
    fresh_rows = sum(len(congestion.level_counts(game, s)) for s in replayed(trace))
    assert len(derived) >= fresh_rows


def test_final_check_catches_a_vector_of_the_right_length(monkeypatch):
    """A kept block derived from another split of its row's players keeps
    the pair count, so only the final fresh check sees it."""
    game, blank = blanked("affine-n40")

    def drifting(game, state, lex, original=oracle._check_replay):
        rid, row = next((r, row) for r, row in lex._rows.items() if row and sum(row.values()) > 1)
        q = max(row)
        split = {1: sum(row.values())} if q > 1 else {1: row[1] - 1, 2: 1}
        lex._rederive(rid, split)
        lex._rows[rid] = row
        return original(game, state, lex)

    monkeypatch.setattr(oracle, "_check_replay", drifting)
    with pytest.raises(pg.InvariantViolatedError, match="differs from a fresh evaluation"):
        pg.certify_trace(game, blank)


@pytest.mark.parametrize("policy", ["roundrobin", "best"])
def test_dynamics_at_n320_solves_and_certifies(policy):
    """Beyond the desk scale: 320 players on 32 resources, no timing bound."""
    doc = desk_families.affine_document(0, 320, 32, consistent=False)
    game = pg.parse_instance(json.dumps(doc))
    final, trace = pg.run_dynamics(game, first_bases(game), policy=policy)
    assert trace.status == "Converged" and trace.steps
    assert pg.certify_trace(game, trace).ok
    assert pg.is_pure_nash(game, final)

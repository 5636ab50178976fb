"""The insertion solver keeps what a row leaves unchanged, and nothing else.

``solve_insertion`` reads every incentive verdict from its
``potentials.InsertionRun``, which keeps every placed player's tolerance
record across rows and rounds and, after each row, re-prices only the
players the level rule names (``InsertionRun._rederive``).  These tests
audit every row as it is made: the re-priced set against the level rule,
and the kept records against fresh evaluations on a copy of the state,
their ``improvable`` flags against the greedy ``has_better_response``.
They show that narrower re-pricing rules are caught, pin the order in
which rebalance rounds discard several strays, and run the solver and
certify once at n=320.
"""

import hashlib
import json
from fractions import Fraction

import pytest

import prioritygames as pg
from test_certify_replay import GAMES_BY_NAME, fresh_column, only_the_placed, strictly_below
from test_jsonio import desk_families
from prioritygames import congestion, potentials
from prioritygames.traceio import trace_to_csv_text


class StaleRecord(AssertionError):
    """A kept tolerance record differs from a fresh evaluation, or a row
    re-priced other players than the level rule names."""


def level_rule(game: pg.Game, state: pg.State, mover: int, r: str) -> set[int]:
    """The placed players a row of ``mover`` on ``r`` can affect, from the
    game's grounds and priorities alone."""
    q = game.priority(r, mover)
    named = {mover} | {
        p for p in game.players() if r in game.ground_of(p) and game.priority(r, p) >= q
    }
    return {p for p in named if state.covers(p)}


def audit(monkeypatch, rederive=None) -> list[int]:
    """Check each row of the next solves as it is made, raising
    ``StaleRecord`` at the first fault: the row must re-price, each once,
    exactly the placed players of :func:`level_rule`, every kept tolerance
    record must equal a fresh evaluation on a copy of the row's state, and
    its ``improvable`` flag the greedy ``has_better_response`` there.
    ``rederive`` replaces the re-pricing rule.  Returns the list the
    audited rows' sizes go to."""
    tolerance = potentials.tolerance
    row: dict = {"priced": []}
    audited: list[int] = []
    last: dict = {}  # per run, the state it read last

    def pricing(game, state, p):
        row["priced"].append(p)
        return tolerance(game, state, p)

    def reading(run, state, mover=None, original=potentials.InsertionRun.at):
        row["priced"] = []
        value = original(run, state, mover)
        before, last[run] = last.get(run), state
        if before is None:  # the run's start
            return value
        (mover,) = {p for p in {*before.players(), *state.players()} if on(before, p) != on(state, p)}
        (r,) = on(before, mover) ^ on(state, mover)
        priced, records = row["priced"], run.records
        if len(priced) != len(set(priced)) or set(priced) != level_rule(
            run.game, state, mover, r
        ):
            raise StaleRecord(f"row of player {mover} on {r} priced {priced}")
        fresh = state.copy()  # a new object: no kept table is read
        if sorted(records) != fresh.players():
            raise StaleRecord(f"records of {sorted(records)}, placed {fresh.players()}")
        for p, record in records.items():
            if record != tolerance(run.game, fresh, p):
                raise StaleRecord(f"kept record of player {p} is {record}")
            if record.improvable != congestion.has_better_response(run.game, fresh, p):
                raise StaleRecord(f"kept flag of player {p} is {record.improvable}")
        if run.improvable != {p for p, record in records.items() if record.improvable}:
            raise StaleRecord(f"improvable players {sorted(run.improvable)}")
        audited.append(len(records))
        return value

    monkeypatch.setattr(potentials, "tolerance", pricing)
    monkeypatch.setattr(potentials.InsertionRun, "at", reading)
    if rederive is not None:
        monkeypatch.setattr(potentials.InsertionRun, "_rederive", rederive)
    return audited


def on(state: pg.State, p: int) -> frozenset[str]:
    """The player's strategy, empty when she is unplaced."""
    return state.strategy(p) if state.covers(p) else frozenset()


@pytest.mark.parametrize("name", sorted(GAMES_BY_NAME))
def test_every_row_keeps_fresh_records_and_reprices_the_level_rule(monkeypatch, name):
    game = GAMES_BY_NAME[name]
    audited = audit(monkeypatch)
    final, trace = pg.solve_insertion(game)
    assert len(audited) == len(trace.steps) and sum(audited) > 0
    assert pg.is_pure_nash(game, final)
    # the running tolerance sum: every recorded potential is a fresh one
    assert trace.steps == fresh_column(game, trace).steps
    monkeypatch.undo()
    assert pg.solve_insertion(game)[1].steps == trace.steps  # the audit changes nothing


AUDITED = ("affine-n24", "affine-n40", "rebalance-n6")


@pytest.mark.parametrize("name", AUDITED)
@pytest.mark.parametrize("narrow", [only_the_placed, strictly_below])
def test_a_narrower_repricing_rule_is_caught_in_the_solver(monkeypatch, narrow, name):
    audit(monkeypatch, rederive=narrow)
    with pytest.raises(StaleRecord):
        pg.solve_insertion(GAMES_BY_NAME[name])


def test_insertion_at_n320_solves_and_certifies():
    """Beyond the desk scale: 320 players on 32 resources, no timing bound."""
    doc = desk_families.affine_document(0, 320, 32, consistent=False)
    game = pg.parse_instance(json.dumps(doc))
    final, trace = pg.solve_insertion(game)
    assert len(trace.steps) == 644
    assert pg.certify_trace(game, trace).ok
    assert pg.is_pure_nash(game, final)


# (k, n, m) of affine_document(k, n, m, consistent=False) games whose
# insertion runs have rebalance rounds; k 1016, 1212 and 1271 discard two or
# three strays in one round, so the digest pins the order they leave in
REBALANCED = [
    (1016, 32, 3), (1043, 37, 6), (1047, 10, 2), (1063, 33, 8), (1066, 30, 3),
    (1079, 31, 5), (1121, 39, 5), (1125, 22, 3), (1131, 27, 3), (1182, 34, 6),
    (1187, 38, 3), (1189, 38, 6), (1195, 32, 2), (1212, 28, 4), (1218, 27, 6),
    (1227, 22, 5), (1271, 22, 5), (1275, 38, 7), (1281, 34, 2), (1299, 25, 7),
]
REBALANCED_DIGEST = "265b7688a341db209636934b6a4f944d9dc9b1503b9b03545fd816ac1bc5458d"


def test_rebalance_order_is_pinned():
    """SHA-256 over the trace CSVs of games with rebalance rows, each certified."""
    digest = hashlib.sha256()
    for k, n, m in REBALANCED:
        doc = desk_families.affine_document(k, n, m, consistent=False)
        game = pg.parse_instance(json.dumps(doc))
        _, trace = pg.solve_insertion(game)
        assert any(s.phase == "rebalance" for s in trace.steps), (k, n, m)
        assert pg.certify_trace(game, trace).ok, (k, n, m)
        digest.update(trace_to_csv_text(trace).encode())
    assert digest.hexdigest() == REBALANCED_DIGEST


# ---------------------------------------------------------------------------
# The kept rows and text of the insertion potential


def assert_kept_value(game: pg.Game, state: pg.State, value: pg.InsertionPotentialValue) -> None:
    """The run's value has the rows and canonical text of fresh ones, read
    from a new copy of ``state``, and its text is the run's kept one."""
    copy = state.copy()
    assert value.text is not None
    assert value.rows == potentials.insertion_rows(game, congestion.level_counts(game, copy))
    assert value.canonical() == pg.insertion_potential(game, copy).canonical()


@pytest.mark.parametrize("name", AUDITED)
def test_kept_rows_and_text_are_fresh_after_every_read(monkeypatch, name):
    """Along the solver's run and certify's, every read's value is checked."""
    game = GAMES_BY_NAME[name]
    reads = []

    def reading(run, state, mover=None, original=potentials.InsertionRun.at):
        value = original(run, state, mover)
        assert_kept_value(run.game, state, value)
        reads.append(value)
        return value

    monkeypatch.setattr(potentials.InsertionRun, "at", reading)
    _, trace = pg.solve_insertion(game)
    assert [v.canonical() for v in reads[1:]] == [s.potential for s in trace.steps]
    solver_reads = len(reads)
    assert pg.certify_trace(game, trace).ok
    assert len(reads) - solver_reads > len(trace.steps)  # the start and every row


def test_runs_build_no_fresh_rows(monkeypatch):
    """The solver's run never calls ``insertion_rows``; certify calls it
    once, in its final fresh ``insertion_potential`` check."""
    calls = []

    def rows(game, counts, original=potentials.insertion_rows):
        calls.append(counts)
        return original(game, counts)

    monkeypatch.setattr(potentials, "insertion_rows", rows)
    for name in AUDITED:
        game = GAMES_BY_NAME[name]
        _, trace = pg.solve_insertion(game)
        assert calls == [], name
        assert pg.certify_trace(game, trace).ok
        assert len(calls) == 1, name
        calls.clear()


def tied_rows_game() -> pg.Game:
    """Five players on three resources; ``a`` and ``b`` have two levels, ``c`` three."""
    return pg.build_game(
        n_players=5,
        resources=["a", "b", "c"],
        spaces={p: pg.SingletonSpace(["a", "b", "c"]) for p in range(1, 6)},
        priorities=pg.PriorityFunction(
            {
                "a": {1: 1, 2: 2, 3: 1, 4: 2, 5: 1},
                "b": {1: 1, 2: 2, 3: 1, 4: 2, 5: 2},
                "c": {1: 1, 2: 2, 3: 3, 4: 1, 5: 2},
            }
        ),
        delays={r: pg.AffineDelay(alpha=Fraction(1), beta=Fraction(0)) for r in "abc"},
    )


def test_kept_rows_follow_jumps_over_tied_rows_and_mixed_tops():
    """Reads without a mover, several players moved at once, through states
    whose rows tie, tie on a prefix across top levels, and part again."""
    game = tied_rows_game()
    states = [
        {1: "a", 2: "a", 3: "b", 4: "b"},  # a and b tie at (1, 1)
        {1: "c", 2: "b", 3: "a", 5: "c"},  # (1, 0), (0, 1), (1, 1, 0)
        {1: "a", 3: "b", 4: "c"},  # a and b tie at (1, 0), c (1, 0, 0) ties on a prefix
        {1: "b", 2: "c", 3: "a", 4: "a", 5: "b"},
        {},
        {1: "c", 2: "c", 3: "c", 4: "c", 5: "c"},
        {1: "a", 2: "a", 3: "b", 4: "b"},
    ]
    run = potentials.InsertionRun(game, pg.State({}))
    assert_kept_value(game, pg.State({}), run.value)
    seen = set()
    for strategies in states:
        state = pg.State(dict(strategies))
        value = run.at(state)
        assert_kept_value(game, state, value)
        seen.update(r for r, s in zip(value.rows, value.rows[1:]) if r == s)
        assert value == pg.insertion_potential(game, state.copy())
    assert (1, 0) in seen and (1, 1) in seen


def test_kept_rows_follow_a_jump_along_a_solved_run():
    """On ``rebalance_n6.json`` (top levels 3 and 4), a run read at every
    third row of a solved trace, without a mover, and back to the start."""
    game = GAMES_BY_NAME["rebalance-n6"]
    _, trace = pg.solve_insertion(game)
    strategies = dict(trace.start.items())
    run = potentials.InsertionRun(game, trace.start.copy())
    for k, step in enumerate(trace.steps, 1):
        if step.to is None:
            strategies.pop(step.player, None)
        else:
            strategies[step.player] = step.to
        if k % 3 == 0 or k == len(trace.steps):
            state = pg.State(dict(strategies))
            assert_kept_value(game, state, run.at(state))
            assert run.value.canonical() == step.potential
    assert_kept_value(game, trace.start, run.at(trace.start.copy()))

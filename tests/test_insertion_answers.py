"""The insertion solver keeps what a row leaves unchanged, and nothing else.

``solve_insertion`` keeps every placed player's "has a better response"
answer across rows and rounds (``dynamics._drop_answers``), and its
``potentials.InsertionRun`` keeps every placed player's tolerance record
(``InsertionRun.repriced``); after each row both re-ask or re-price only
the players the level rule names.  These tests audit every row as it is
made: the re-priced set against the level rule, and the kept values
against fresh evaluations on a copy of the state.  They show that narrower
drop rules and narrower re-pricing rules are caught, and run the solver
and certify once at n=320.
"""

import json

import pytest

import prioritygames as pg
from test_certify_replay import GAMES_BY_NAME, fresh_column, only_the_mover, strictly_below
from test_jsonio import desk_families
from prioritygames import congestion, dynamics, potentials


class StaleRecord(AssertionError):
    """A kept answer or tolerance differs from a fresh evaluation, or a row
    re-priced other players than the level rule names."""


def level_rule(game: pg.Game, state: pg.State, mover: int, r: str) -> set[int]:
    """The placed players a row of ``mover`` on ``r`` can affect, from the
    game's grounds and priorities alone."""
    q = game.priority(r, mover)
    named = {mover} | {
        p for p in game.players() if r in game.ground_of(p) and game.priority(r, p) >= q
    }
    return {p for p in named if state.covers(p)}


def audit(monkeypatch, drop=None, repriced=None) -> list[int]:
    """Check each row of the next solves as it is made, raising
    ``StaleRecord`` at the first fault: the row must re-price, each once,
    exactly the placed players of :func:`level_rule`, and every kept answer
    and tolerance record must equal a fresh evaluation on a copy of the
    row's state.  ``drop`` replaces the drop rule and ``repriced`` the
    re-pricing rule.  Returns the list the audited rows' sizes go to."""
    drop = drop or dynamics._drop_answers
    tolerance = potentials.tolerance
    row: dict = {"priced": []}
    audited: list[int] = []

    def dropping(game, state, answers, settled, reach, mover, frm, to):
        row.update(answers=answers)
        return drop(game, state, answers, settled, reach, mover, frm, to)

    def pricing(game, state, p):
        row["priced"].append(p)
        return tolerance(game, state, p)

    def stepping(run, state, mover, changed, original=potentials.InsertionRun.step):
        row["priced"] = []
        value = original(run, state, mover, changed)
        (r,) = changed
        priced, answers, records = row["priced"], row["answers"], run.records
        if len(priced) != len(set(priced)) or set(priced) != level_rule(
            run.game, state, mover, r
        ):
            raise StaleRecord(f"row of player {mover} on {r} priced {priced}")
        fresh = state.copy()  # a new object: no kept table or weights are read
        for p, answer in answers.items():
            if answer != congestion.has_better_response(run.game, fresh, p):
                raise StaleRecord(f"kept answer of player {p} is {answer}")
        if sorted(records) != fresh.players():
            raise StaleRecord(f"records of {sorted(records)}, placed {fresh.players()}")
        for p, record in records.items():
            if record != tolerance(run.game, fresh, p):
                raise StaleRecord(f"kept record of player {p} is {record}")
        if run.improvable != {p for p, record in records.items() if record.improvable}:
            raise StaleRecord(f"improvable players {sorted(run.improvable)}")
        audited.append(len(answers) + len(records))
        return value

    monkeypatch.setattr(dynamics, "_drop_answers", dropping)
    monkeypatch.setattr(potentials, "tolerance", pricing)
    monkeypatch.setattr(potentials.InsertionRun, "step", stepping)
    if repriced is not None:
        monkeypatch.setattr(potentials.InsertionRun, "repriced", repriced)
    return audited


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


def drop_rule(*, mover_only=False, strict=False, keep_improvers=False, keep_settled=False):
    """``dynamics._drop_answers`` with one of its parts narrowed."""

    def drop(game, state, answers, settled, reach, mover, frm, to):
        answers.pop(mover, None)
        if mover_only:
            return
        for r in frm ^ to:
            q, joined = game.priority(r, mover), r in to
            for p, level in reach[r]:
                if level > q or (level == q and not strict):
                    answer = answers.get(p)
                    if answer is None:
                        continue
                    if settled(answer):
                        if not keep_settled and (r in state.strategy(p)) == joined:
                            del answers[p]
                    elif not keep_improvers:
                        del answers[p]

    return drop


AUDITED = ("affine-n24", "affine-n40", "rebalance-n6")

MUTANTS = {
    "mover-only": drop_rule(mover_only=True),
    "strictly-below": drop_rule(strict=True),
    "keeps-improvers": drop_rule(keep_improvers=True),
    "keeps-settled": drop_rule(keep_settled=True),
}


def test_the_reference_rule_is_the_solvers(monkeypatch):
    """The unnarrowed copy the mutants start from audits clean."""
    audit(monkeypatch)
    traces = {name: pg.solve_insertion(GAMES_BY_NAME[name])[1] for name in AUDITED}
    monkeypatch.undo()
    audit(monkeypatch, drop_rule())
    for name in AUDITED:
        assert pg.solve_insertion(GAMES_BY_NAME[name])[1].steps == traces[name].steps


@pytest.mark.parametrize(
    "mutant, name",
    [
        (mutant, name)
        for mutant in sorted(MUTANTS)
        for name in AUDITED
        # its kept answers all stay fresh on this game
        if (mutant, name) != ("strictly-below", "rebalance-n6")
    ],
)
def test_a_narrower_drop_rule_is_caught(monkeypatch, mutant, name):
    audit(monkeypatch, MUTANTS[mutant])
    with pytest.raises(StaleRecord):
        pg.solve_insertion(GAMES_BY_NAME[name])


@pytest.mark.parametrize("name", AUDITED)
@pytest.mark.parametrize("narrow", [only_the_mover, strictly_below])
def test_a_narrower_repricing_rule_is_caught_in_the_solver(monkeypatch, narrow, name):
    audit(monkeypatch, repriced=narrow)
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

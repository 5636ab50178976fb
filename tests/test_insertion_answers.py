"""The insertion solver keeps what a row leaves unchanged, and nothing else.

``solve_insertion`` keeps every placed player's "has a better response"
answer and tolerance across rows and rounds, and after each row re-asks
and re-prices only the players the level rule names
(``dynamics._drop_answers``).  These tests audit every row as it is
made: the re-priced set against the level rule, and the kept values
against fresh evaluations on a copy of the state.  They show that four
narrower drop rules are caught, and run the solver and certify once at
n=320.
"""

import json

import pytest

import prioritygames as pg
from test_certify_replay import GAMES_BY_NAME, fresh_column
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


def audit(monkeypatch, drop=None) -> list[int]:
    """Check each row of the next solves as it is made, raising
    ``StaleRecord`` at the first fault: the row must re-price, each once,
    exactly the placed players of :func:`level_rule`, and every kept answer
    and tolerance must equal a fresh evaluation on a copy of the row's
    state.  ``drop`` replaces the drop rule.  Returns the list the audited
    rows' sizes go to."""
    drop = drop or dynamics._drop_answers
    row: dict = {}
    audited: list[int] = []

    def dropping(game, state, answers, settled, reach, mover, frm, to):
        row.update(answers=answers, mover=mover, changed=frm ^ to, priced=[])
        return drop(game, state, answers, settled, reach, mover, frm, to)

    def pricing(game, state, p, original=dynamics.tol_value):
        row["priced"].append(p)
        return original(game, state, p)

    def retallying(game, state, affected, tol, original=dynamics._retally):
        delta = original(game, state, affected, tol)
        (r,) = row["changed"]
        priced, answers = row["priced"], row["answers"]
        if len(priced) != len(set(priced)) or set(priced) != level_rule(
            game, state, row["mover"], r
        ):
            raise StaleRecord(f"row of player {row['mover']} on {r} priced {priced}")
        fresh = state.copy()  # a new object: no kept table or weights are read
        for p, answer in answers.items():
            if answer != congestion.has_better_response(game, fresh, p):
                raise StaleRecord(f"kept answer of player {p} is {answer}")
        if sorted(tol) != fresh.players():
            raise StaleRecord(f"tolerances of {sorted(tol)}, placed {fresh.players()}")
        for p, value in tol.items():
            if value != potentials.tol_value(game, fresh, p):
                raise StaleRecord(f"kept tolerance of player {p} is {value}")
        audited.append(len(answers) + len(tol))
        return delta

    monkeypatch.setattr(dynamics, "_drop_answers", dropping)
    monkeypatch.setattr(dynamics, "tol_value", pricing)
    monkeypatch.setattr(dynamics, "_retally", retallying)
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
        affected = {mover}
        if mover_only:
            return affected
        for r in frm ^ to:
            q, joined = game.priority(r, mover), r in to
            for p in reach[r]:
                level = game.priority(r, p)
                if level > q or (level == q and not strict):
                    affected.add(p)
                    answer = answers.get(p)
                    if answer is None:
                        continue
                    if settled(answer):
                        if not keep_settled and (r in state.strategy(p)) == joined:
                            del answers[p]
                    elif not keep_improvers:
                        del answers[p]
        return affected

    return drop


MUTANTS = {
    "mover-only": drop_rule(mover_only=True),
    "strictly-below": drop_rule(strict=True),
    "keeps-improvers": drop_rule(keep_improvers=True),
    "keeps-settled": drop_rule(keep_settled=True),
}


def test_the_reference_rule_is_the_solvers(monkeypatch):
    """The unnarrowed copy the mutants start from audits clean."""
    names = ("affine-n24", "affine-n40", "rebalance-n6")
    audit(monkeypatch)
    traces = {name: pg.solve_insertion(GAMES_BY_NAME[name])[1] for name in names}
    monkeypatch.undo()
    audit(monkeypatch, drop_rule())
    for name in names:
        assert pg.solve_insertion(GAMES_BY_NAME[name])[1].steps == traces[name].steps


@pytest.mark.parametrize("name", ["affine-n24", "affine-n40", "rebalance-n6"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_narrower_drop_rule_is_caught(monkeypatch, mutant, name):
    audit(monkeypatch, MUTANTS[mutant])
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

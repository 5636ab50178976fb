"""Golden SHA-256 digest of certify_trace's findings on corrupted traces.

A seeded corpus takes clean traces of ``run_dynamics``, ``solve_insertion``
and ``solve_consistent_layered`` on a spread of generated games (shared,
player-specific, classic and affine delays; singleton, explicit, uniform,
partition, graphic and mixed spaces) and breaks one field of each copy:
a recorded cost, the potential, ``frm``, ``to``, the phase, the player,
the round, a dropped, duplicated or swapped row, the final state, the
status or the start state.  The digest covers every ``(step, code,
message)`` list in order, so any change in what certify finds, how it
words it, or the order it reports it in shows up here.
"""

import hashlib
import random
from dataclasses import replace
from pathlib import Path

import prioritygames as pg
from conftest import gen_game
from test_trace_digests import _first_bases

DATA = Path(__file__).parent / "data"

GAMES = {
    "singleton": (14, dict(players=6, resources=3, levels=3)),
    "singleton-consistent": (3, dict(players=6, resources=3, levels=2, consistent=True)),
    "singleton-ps": (11, dict(players=6, resources=3, levels=3, player_specific=True)),
    "singleton-ps-consistent": (
        19,
        dict(players=6, resources=3, consistent=True, player_specific=True),
    ),
    "singleton-classic": (23, dict(players=6, resources=3, model="classic", levels=3)),
    "singleton-affine": (39, dict(players=6, resources=3, model="affine", levels=3)),
    "explicit-consistent": (
        0,
        dict(players=5, resources=4, space_kind="explicit", levels=3, consistent=True),
    ),
    "uniform": (0, dict(players=5, resources=4, space_kind="uniform", levels=2)),
    "partition-consistent": (
        7,
        dict(players=5, resources=5, space_kind="partition", consistent=True),
    ),
    "graphic-consistent": (6, dict(players=5, resources=4, space_kind="graphic", consistent=True)),
    "mixed-affine": (0, dict(players=5, resources=4, space_kind="mixed", model="affine")),
}

CODES = {
    "BAD_START",
    "UNKNOWN_PLAYER",
    "FROM_MISMATCH",
    "COST_BEFORE_MISMATCH",
    "COST_AFTER_MISMATCH",
    "BAD_STRATEGY",
    "NOT_IMPROVING",
    "BAD_PHASE",
    "POTENTIAL_MISMATCH",
    "POTENTIAL_NOT_DECREASING",
    "POTENTIAL_NOT_INCREASING",
    "INCENTIVE_BROKEN",
    "FINAL_MISMATCH",
    "PARTIAL_FINAL",
    "NOT_EQUILIBRIUM",
}

CORPUS_DIGEST = "06ab94bdd55f567bf9e00518ca5abd77f61d8b7b07dbf7e5d13d2a61b9c4cd31"


def base_traces():
    """(name, game, trace) for every solver that runs on each corpus game."""
    games = [(name, gen_game(seed, **kw)) for name, (seed, kw) in GAMES.items()]
    games.append(("rebalance-n6", pg.parse_instance((DATA / "rebalance_n6.json").read_bytes())))
    runs = {
        "br": lambda g: pg.run_dynamics(g, _first_bases(g)),
        "br-capped": lambda g: pg.run_dynamics(g, _first_bases(g), cap=2),
        "insertion": pg.solve_insertion,
        "layered": pg.solve_consistent_layered,
    }
    out = []
    for name, game in games:
        for solver, run in runs.items():
            try:
                _, trace = run(game)
            except pg.GameError:
                continue
            if len(trace.steps) >= 2:
                out.append((f"{solver}/{name}", game, trace))
    return out


def _copy(trace):
    return pg.MoveTrace(
        kind=trace.kind,
        start=trace.start,
        steps=[replace(s) for s in trace.steps],
        final=trace.final,
        status=trace.status,
    )


def _other_base(game, player, current, rng):
    bases = [b for b in game.spaces[player].all_bases() if b != current]
    return rng.choice(bases) if bases else None


def _bump(c):
    return pg.cost(1) if c is None else c + pg.cost(1)


def _row(trace, rng):
    return trace.steps[rng.randrange(len(trace.steps))]


def _set(field, value):
    def corrupt(game, trace, rng):
        row = _row(trace, rng)
        setattr(row, field, value(game, trace, row, rng))

    return corrupt


def _drop(game, trace, rng):
    del trace.steps[rng.randrange(len(trace.steps))]


def _duplicate(game, trace, rng):
    k = rng.randrange(len(trace.steps))
    trace.steps.insert(k + 1, replace(trace.steps[k]))


def _swap(game, trace, rng):
    k = rng.randrange(len(trace.steps) - 1)
    trace.steps[k], trace.steps[k + 1] = trace.steps[k + 1], trace.steps[k]


def _final_other(game, trace, rng):
    p = rng.choice(game.players())
    alt = _other_base(game, p, trace.final.strategy(p) if trace.final.covers(p) else None, rng)
    trace.final = trace.final.with_player(p, alt) if alt is not None else trace.start


def _status_flip(game, trace, rng):
    converged = trace.status == pg.dynamics.CONVERGED
    trace.status = pg.dynamics.CAP_REACHED if converged else pg.dynamics.CONVERGED


def _start(change):
    def corrupt(game, trace, rng):
        players = trace.start.players()
        if players:
            trace.start = change(game, trace.start, rng.choice(players), rng)

    return corrupt


def _start_other(game, start, p, rng):
    alt = _other_base(game, p, start.strategy(p), rng)
    return start if alt is None else start.with_player(p, alt)


PHASE_POOL = ("br", "insert", "discard", "rebalance", "layer:1", "layer:2", "layer:x")

CORRUPTIONS = {
    "cost_before+1": _set("cost_before", lambda g, t, row, rng: _bump(row.cost_before)),
    "cost_before=none": _set("cost_before", lambda g, t, row, rng: None),
    "cost_before=inf": _set("cost_before", lambda g, t, row, rng: pg.INFINITY),
    "cost_after+1": _set("cost_after", lambda g, t, row, rng: _bump(row.cost_after)),
    "cost_after=none": _set("cost_after", lambda g, t, row, rng: None),
    "cost_after=inf": _set("cost_after", lambda g, t, row, rng: pg.INFINITY),
    "potential=x": _set("potential", lambda g, t, row, rng: row.potential + "x"),
    "potential=none": _set("potential", lambda g, t, row, rng: ""),
    "potential=other": _set("potential", lambda g, t, row, rng: _row(t, rng).potential),
    "frm=other": _set("frm", lambda g, t, row, rng: _other_base(g, row.player, row.frm, rng)),
    "frm=none": _set("frm", lambda g, t, row, rng: None),
    "to=other": _set("to", lambda g, t, row, rng: _other_base(g, row.player, row.to, rng)),
    "to=none": _set("to", lambda g, t, row, rng: None),
    "to=foreign": _set("to", lambda g, t, row, rng: frozenset({"zzz"})),
    "phase=other": _set("phase", lambda g, t, row, rng: rng.choice(PHASE_POOL)),
    "player=other": _set("player", lambda g, t, row, rng: rng.choice(g.players())),
    "player=unknown": _set("player", lambda g, t, row, rng: len(g.players()) + 1),
    "round+1": _set("round", lambda g, t, row, rng: row.round + 1),
    "drop": _drop,
    "duplicate": _duplicate,
    "swap": _swap,
    "final=other": _final_other,
    "final=start": lambda g, t, rng: setattr(t, "final", t.start),
    "status": _status_flip,
    "start=drop": _start(lambda g, start, p, rng: start.without_player(p)),
    "start=other": _start(_start_other),
    "start=foreign": _start(lambda g, start, p, rng: start.with_player(p, "zzz")),
}


def corpus(draws: int = 1):
    """(case id, game, corrupted trace): ``draws`` seeded copies per base
    trace and corruption."""
    for t, (name, game, trace) in enumerate(base_traces()):
        for c, (kind, corrupt) in enumerate(CORRUPTIONS.items()):
            for d in range(draws):
                bad = _copy(trace)
                corrupt(game, bad, random.Random(10_000 * d + 100 * t + c))
                yield f"{name}/{kind}/{d}", game, bad


def findings(cases):
    """Each case's violations as ``(step, code, message)`` triples."""
    return [
        (case, [(v.step, v.code, v.message) for v in pg.certify_trace(game, trace).violations])
        for case, game, trace in cases
    ]


def digest(found) -> str:
    h = hashlib.sha256()
    for case, violations in found:
        h.update(f"{case}\t{violations!r}\n".encode())
    return h.hexdigest()


def test_corpus_findings_digest():
    found = findings(corpus())
    assert len(found) >= 600
    assert CODES <= {code for _, vs in found for _, code, _ in vs}
    assert digest(found) == CORPUS_DIGEST

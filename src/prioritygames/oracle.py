"""Brute-force ground truth and trace certification at desk scale.

Equilibria are found by enumerating every profile and scanning every
deviation of every player, priced directly, with no greedy shortcuts or
best-response machinery.  Trace certification replays a recorded run step
by step, recomputing costs and potentials, and reports violations as data.

The replay shares with the solvers the state stepping
(:func:`~prioritygames.congestion.step_state` and its
:func:`~prioritygames.congestion.tally` table), the tolerance records
(:func:`~prioritygames.potentials.tolerance`) and the running potentials
(:class:`~prioritygames.potentials.LexRun`,
:class:`~prioritygames.potentials.LevelRun`,
:class:`~prioritygames.potentials.InsertionRun`), each run on certify's own
states, one held at a time and read by ``at(state)``; the insertion solver
and certify both read their per-round incentive verdicts from the run's
tolerance records.  Two
things stay apart from that running bookkeeping: the naive enumeration
above, and the final checks, which hold the final state to the greedy
``is_pure_nash``, and the stepped table and the held run to a fresh count
and a fresh evaluation of a new copy of the final state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Union

from .congestion import (
    State,
    is_pure_nash,
    level_counts,
    player_cost,
    step_state,
    tally,
    validate_state,
)
from .core import Game
from .costs import ExtCost
from .errors import BudgetExceededError, InvariantViolatedError, ValidationFailed
from .dynamics import CONVERGED, MoveTrace, fits_kind, layer_level, opens_round
from .markets import (
    AffineGame,
    ClassicGame,
    MarketGame,
    affine_player_cost,
    classic_player_cost,
    market_player_cost,
)
from .potentials import (
    LESS,
    InsertionRun,
    LevelRun,
    LexRun,
    falls,
    insertion_potential,
    insertion_potential_compare,
    level_potential,
    lex_potential_singleton,
)

AnyGame = Union[Game, MarketGame, ClassicGame, AffineGame]

DEFAULT_BUDGET = 2_000_000


@dataclass
class EnumerationBudget:
    """A mutable profile counter; enumeration aborts cleanly past the cap."""

    max_profiles: int = DEFAULT_BUDGET
    observed: int = 0

    def tick(self) -> None:
        self.observed += 1
        if self.observed > self.max_profiles:
            raise BudgetExceededError(
                f"profile enumeration exceeded the budget of {self.max_profiles}"
            )


def _cost_of(game: AnyGame, state: State, player: int) -> ExtCost:
    if isinstance(game, MarketGame):
        return market_player_cost(game, state, player)
    if isinstance(game, ClassicGame):
        return classic_player_cost(game, state, player)
    if isinstance(game, AffineGame):
        return affine_player_cost(game, state, player)
    return player_cost(game, state, player)


def enumerate_profiles(
    game: AnyGame, budget: EnumerationBudget | None = None
) -> Iterator[State]:
    """Every full profile exactly once, in id-lexicographic order."""
    budget = budget or EnumerationBudget()
    players = sorted(game.spaces)
    pools = [game.spaces[p].all_bases() for p in players]
    for combo in itertools.product(*pools):
        budget.tick()
        yield State(dict(zip(players, combo)))


def brute_force_pne(
    game: AnyGame, budget: EnumerationBudget | None = None
) -> list[State]:
    """All pure Nash equilibria, by exhaustive deviation scans.

    Intentionally naive: for each profile, each player's every alternative
    strategy is priced directly; no best-response machinery is reused.
    """
    out = []
    for prof in enumerate_profiles(game, budget):
        if _profile_is_pne_naive(game, prof):
            out.append(prof)
    return out


def _profile_is_pne_naive(game: AnyGame, prof: State) -> bool:
    for p in sorted(game.spaces):
        current = _cost_of(game, prof, p)
        for alt in game.spaces[p].all_bases():
            if alt == prof.strategy(p):
                continue
            if _cost_of(game, prof.with_player(p, alt), p) < current:
                return False
    return True


# ---------------------------------------------------------------------------
# Trace certification


@dataclass(frozen=True)
class TraceViolation:
    step: int  # -1 for run-level findings
    code: str
    message: str

    def __str__(self) -> str:
        where = "run" if self.step < 0 else f"step {self.step}"
        return f"[{self.code}] {where}: {self.message}"


@dataclass
class CertifyReport:
    violations: list[TraceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "trace certified: no violations"
        lines = "\n".join(f"  - {v}" for v in self.violations)
        return f"trace has {len(self.violations)} violation(s):\n{lines}"


def certify_trace(game: Game, trace: MoveTrace) -> CertifyReport:
    """Replay a recorded run and verify it against the game.

    Before any row, the start must be legal (``BAD_START``).  Every row: the
    player is in the game (``UNKNOWN_PLAYER``) and the new strategy in her
    space (``BAD_STRATEGY``), else the replay stops there; the recorded
    previous strategy matches the replay (``FROM_MISMATCH``); both recorded
    costs match exact recomputation and are blank for an unplaced or a
    discarded player (``COST_BEFORE_MISMATCH``, ``COST_AFTER_MISMATCH``); a
    move between strategies lowers the recorded and the recomputed cost
    (``NOT_IMPROVING``); the phase is one of the trace kind's
    (:func:`~prioritygames.dynamics.fits_kind`), and a ``layer:`` phase
    names a level, the mover's own, on a game with consistent priorities,
    and none below the level of an earlier row that passed these checks:
    levels never go back down (``BAD_PHASE``).

    One potential rule, chosen from the trace kind and the game, reads each
    replayed row's value from the one running potential certify holds at a
    time, compares it with the row's nonblank potential column
    (``POTENTIAL_MISMATCH``) and checks its direction; a fall is strict, or
    a scalar plateau at +inf (:func:`~prioritygames.potentials.falls`):

    * ``br`` on a shared-delay singleton game: one
      :class:`~prioritygames.potentials.LexRun` for the replay, read on
      every full state, falls from full state to full state
      (``POTENTIAL_NOT_DECREASING``).  A running vector without one pair
      per player is a fault in certify, raised as ``InvariantViolatedError``;
    * ``layered`` on a consistent shared-delay game: a new
      :class:`~prioritygames.potentials.LevelRun` of level q starts on the
      first row of each ``layer:<q>`` phase and on the first after a
      ``BAD_PHASE`` row; every later move row of the phase lowers it
      (``POTENTIAL_NOT_DECREASING``);
    * ``insertion`` on a singleton game: one
      :class:`~prioritygames.potentials.InsertionRun`, read on every
      row, rises strictly across every round without a ``rebalance`` row
      (``POTENTIAL_NOT_INCREASING``), and after every round nobody has a
      better response (``INCENTIVE_BROKEN``); each row but a discard or a
      rebalance opens a round (:func:`~prioritygames.dynamics.opens_round`),
      whatever its ``round`` field reads.  The incentives are read from each
      placed player's :func:`~prioritygames.potentials.tolerance` record,
      the one the row's potential summed: her ceiling, the least entry
      cost over her alternatives, below her stay cost.  The solver reads
      its verdicts from the same records on its own run, so a slip in
      them shared by both shows only in the final checks below;
    * any other run records no potential, and none is checked.

    Per run: the recorded final state matches the replay
    (``FINAL_MISMATCH``), and a converged run ends with every player placed
    (``PARTIAL_FINAL``) in a pure Nash equilibrium (``NOT_EQUILIBRIUM``).

    Replay starts from its own copy of the start, counted afresh, and steps
    each row with :func:`~prioritygames.congestion.step_state` from the
    strategy the replay holds, so each row's level-count table, and the
    held run's value, is derived from the row before it in certify, never
    from a table, weight or record the solver priced.  After the last row
    the stepped table must equal a fresh count of a new copy of the final
    state, and the held run's value of the final state the run's fresh
    function of that copy:
    :func:`~prioritygames.potentials.insertion_potential`,
    :func:`~prioritygames.potentials.level_potential` at the run's level,
    or, for a full final state,
    :func:`~prioritygames.potentials.lex_potential_singleton`.  A
    difference is a fault in certify itself, raised as
    ``InvariantViolatedError``.
    """
    report = CertifyReport()

    def flag(step: int, code: str, message: str) -> None:
        report.violations.append(TraceViolation(step, code, message))

    # a copy, so the tally slot cannot hold a table the solver counted
    state = trace.start.copy()
    try:
        validate_state(game, state)
    except ValidationFailed as exc:
        flag(-1, "BAD_START", str(exc))
        return report
    tally(game, state)  # the replay's own table, stepped row by row from here

    shared, priorities = not game.player_specific, game.priorities
    # the rule's running potential: one LexRun or InsertionRun for the whole
    # replay, or a new LevelRun on each layer phase
    held: LexRun | InsertionRun | LevelRun | None = None
    if trace.kind == "insertion" and game.is_singleton_game():
        rule, held = "insertion", InsertionRun(game, state)
    elif trace.kind == "br" and shared and game.is_singleton_game():
        rule, held = "lex", LexRun(game)
        if state.is_full(game):  # every block of the validated start, so each row
            held.at(state)  # re-derives only its own
    elif trace.kind == "layered" and shared and priorities.consistent:
        rule = "layer"
    else:
        rule = None
    # insertion runs: the potential at the last round boundary
    round_potential = held.value if rule == "insertion" else None
    rebalanced = False
    top = 0  # layered runs: the highest level of a row that passed the phase checks

    for pos, step in enumerate(trace.steps):
        idx = step.index
        if step.player not in game.players():
            flag(idx, "UNKNOWN_PLAYER", f"player {step.player}")
            return report
        actual_frm = state.strategy(step.player) if state.covers(step.player) else None
        if actual_frm != step.frm:
            flag(idx, "FROM_MISMATCH", f"recorded {_fmt(step.frm)}, replay has {_fmt(actual_frm)}")
        cost_b = None if actual_frm is None else player_cost(game, state, step.player)
        if step.frm is not None and step.cost_before != cost_b:
            flag(idx, "COST_BEFORE_MISMATCH", f"recorded {step.cost_before}, recomputed {cost_b}")
        elif step.frm is None and step.cost_before is not None:
            flag(idx, "COST_BEFORE_MISMATCH", "unplaced player has no cost")

        if step.to is None:
            state = step_state(game, state, step.player, None)
            if step.cost_after is not None:
                flag(idx, "COST_AFTER_MISMATCH", "discarded player has no cost")
        elif not game.spaces[step.player].is_base(step.to):
            # the replay state would leave the game's vocabulary; stop here
            flag(idx, "BAD_STRATEGY", f"{_fmt(step.to)} outside the space")
            return report
        else:
            state = step_state(game, state, step.player, step.to)
            cost_a = player_cost(game, state, step.player)
            if step.cost_after != cost_a:
                flag(idx, "COST_AFTER_MISMATCH", f"recorded {step.cost_after}, recomputed {cost_a}")
            if step.frm is not None:
                before, after = step.cost_before, step.cost_after
                if before is not None and after is not None and not after < before:
                    flag(idx, "NOT_IMPROVING", "recorded costs do not drop")
                if cost_b is not None and not cost_a < cost_b:
                    flag(idx, "NOT_IMPROVING", "recomputed costs do not drop")

        level = layer_level(step.phase)
        own = priorities.level(step.player) if priorities.consistent else None
        if level is None and step.phase.startswith("layer:"):
            bad = f"malformed layer phase {step.phase!r}"
        elif not fits_kind(step.phase, trace.kind):
            bad = f"phase {step.phase!r} is foreign to {trace.kind} traces"
        elif level is not None and own is None:
            bad = f"layer {level} on a game without consistent priorities"
        elif level is not None and level != own:
            bad = f"player {step.player} of level {own} moves in layer {level}"
        elif level is not None and level < top:
            bad = f"layer {level} after layer {top}"
        else:
            bad, top = None, level or top
        if bad is not None:
            flag(idx, "BAD_PHASE", bad)
            level = None
            if rule == "layer":
                held = None  # the next layer row starts its run afresh

        above = None  # the held value this row's potential must fall below
        if rule == "insertion":
            potential = held.at(state, step.player)  # the replay stepped her alone
        elif rule == "lex" and state.is_full(game):
            above, potential = held.value, held.at(state)
            if len(potential.pairs) != game.n_players:  # a block the vector failed to re-derive
                raise InvariantViolatedError(
                    f"certify's running lexicographic potential has {len(potential.pairs)}"
                    f" pairs for {game.n_players} players"
                )
        elif rule == "layer" and level is not None:
            if held is None or held.q != level:
                held = LevelRun(game, state, level)
            elif step.frm is not None and step.to is not None:
                above = held.value
            potential = held.at(state)
        else:
            potential = None
        if step.potential and potential is not None and step.potential != potential.canonical():
            flag(
                idx,
                "POTENTIAL_MISMATCH",
                f"recorded {step.potential!r}, recomputed {potential.canonical()!r}",
            )
        if above is not None and not falls(potential, above):
            what = "lexicographic" if rule == "lex" else f"level {level} scalar"
            flag(idx, "POTENTIAL_NOT_DECREASING", f"{what} potential")

        rebalanced = rebalanced or step.phase == "rebalance"
        nxt = trace.steps[pos + 1] if pos + 1 < len(trace.steps) else None
        if rule == "insertion" and (nxt is None or opens_round(nxt.phase)):
            # rebalance rounds repair the invariant and owe no strict rise
            if not rebalanced and insertion_potential_compare(round_potential, potential) != LESS:
                flag(
                    idx,
                    "POTENTIAL_NOT_INCREASING",
                    f"insertion potential did not rise across round {step.round}",
                )
            for p in sorted(held.improvable):
                flag(
                    idx,
                    "INCENTIVE_BROKEN",
                    f"player {p} has a better response after round {step.round}",
                )
            round_potential, rebalanced = potential, False

    if trace.final is not None and trace.final != state:
        flag(-1, "FINAL_MISMATCH", "recorded final state differs from replay")
    if trace.status == CONVERGED:
        if not state.is_full(game):
            flag(-1, "PARTIAL_FINAL", "converged run left players unplaced")
        elif not is_pure_nash(game, state):
            flag(-1, "NOT_EQUILIBRIUM", "final profile is not a pure Nash equilibrium")
    _check_replay(game, state, held)
    return report


def _check_replay(game: Game, state: State, held: LexRun | InsertionRun | LevelRun | None) -> None:
    """The stepped table against a fresh count of the replay's final state,
    and the held run's potential of it, read by ``at`` as on every row,
    against its fresh function of a new copy (``level_counts`` and the copy
    read no table certify stepped).  A lex run is held to full states
    only."""
    if tally(game, state) != level_counts(game, state):
        raise InvariantViolatedError("certify's stepped count table differs from a fresh count")
    if held is None or isinstance(held, LexRun) and not state.is_full(game):
        return
    kept, copy = held.at(state), state.copy()
    if isinstance(held, InsertionRun):
        what, fresh = "insertion", insertion_potential(game, copy)
    elif isinstance(held, LevelRun):
        what, fresh = "level", level_potential(game, copy, held.q)
    else:
        what, fresh = "lexicographic", lex_potential_singleton(game, copy)
    if kept != fresh:
        raise InvariantViolatedError(
            f"certify's running {what} potential differs from a fresh evaluation"
        )


def _fmt(s: frozenset[str] | None) -> str:
    return "-" if s is None else "+".join(sorted(s)) or "{}"

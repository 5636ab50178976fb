"""Brute-force ground truth and trace certification at desk scale.

The oracle deliberately shares nothing with the solver code paths beyond
raw cost evaluation: equilibria are found by enumerating every profile and
scanning every deviation of every player, with no greedy shortcuts.  Trace
certification replays a recorded run step by step, recomputing costs and
potentials, and reports violations as data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Union

from .congestion import (
    State,
    has_better_response,
    is_pure_nash,
    player_cost,
    validate_state,
)
from .core import Game
from .costs import ExtCost
from .errors import BudgetExceededError, ValidationFailed
from .dynamics import CONVERGED, MoveTrace, layer_level
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
    InsertionPotentialValue,
    LexVector,
    ScalarPotential,
    insertion_potential,
    insertion_potential_compare,
    level_potential,
    lex_compare,
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

    Checks, per step: the recorded previous strategy, both recorded costs
    (recomputed exactly), strict cost decrease for strategy-to-strategy
    moves, and the recorded potential snapshot.  Checks, per run: the
    solver-specific potential monotonicity (lexicographic decrease for
    better-response runs on shared-delay singleton games, scalar decrease
    inside layers, insertion-potential increase across insertion rounds
    with the no-incentive invariant after every round), the recorded final
    state, and that a converged run ends in a pure Nash equilibrium.  The
    potential of each replayed state is recomputed once and serves both the
    snapshot comparison and the monotonicity checks.

    Replay makes a new ``State`` for every row, and every query on that
    state (the recorded-cost checks, the potential and the round-boundary
    incentive scan) reads the one level-count table that
    :func:`~prioritygames.congestion.tally` counts from it.  ``tally`` keys
    its table by state identity, so no replayed row reads a table the
    solver counted, and a slip in the solver's own bookkeeping still shows.
    """
    report = CertifyReport()
    state = trace.start
    try:
        validate_state(game, state)
    except ValidationFailed as exc:
        report.violations.append(TraceViolation(-1, "BAD_START", str(exc)))
        return report

    singleton = game.is_singleton_game()
    lexable = trace.kind == "br" and singleton and not game.player_specific
    insertion = trace.kind == "insertion" and singleton
    layered = trace.kind == "layered" and game.priorities.consistent and not game.player_specific

    prev_lex = lex_potential_singleton(game, state) if lexable and state.is_full(game) else None
    prev_round_potential = insertion_potential(game, state) if insertion else None
    layer_phase = None
    layer_prev_scalar = None
    round_rebalanced = False

    def check_round_boundary(
        at_state: State,
        current: InsertionPotentialValue,
        round_no: int,
        last_index: int,
        rebalanced: bool,
    ) -> None:
        nonlocal prev_round_potential
        # rebalance rounds repair the invariant and are exempt from the
        # strict-increase guarantee
        if not rebalanced and insertion_potential_compare(prev_round_potential, current) != LESS:
            report.violations.append(
                TraceViolation(
                    last_index,
                    "POTENTIAL_NOT_INCREASING",
                    f"insertion potential did not rise across round {round_no}",
                )
            )
        prev_round_potential = current
        for p in at_state.players():
            if has_better_response(game, at_state, p):
                report.violations.append(
                    TraceViolation(
                        last_index,
                        "INCENTIVE_BROKEN",
                        f"player {p} has a better response after round {round_no}",
                    )
                )

    for pos, step in enumerate(trace.steps):
        idx = step.index
        if step.player not in game.players():
            report.violations.append(
                TraceViolation(idx, "UNKNOWN_PLAYER", f"player {step.player}")
            )
            return report
        actual_frm = state.strategy(step.player) if state.covers(step.player) else None
        if actual_frm != step.frm:
            report.violations.append(
                TraceViolation(
                    idx,
                    "FROM_MISMATCH",
                    f"recorded {_fmt(step.frm)}, replay has {_fmt(actual_frm)}",
                )
            )
        cost_b = None
        if state.covers(step.player):
            cost_b = player_cost(game, state, step.player)
        if step.frm is not None:
            if step.cost_before != cost_b:
                report.violations.append(
                    TraceViolation(
                        idx,
                        "COST_BEFORE_MISMATCH",
                        f"recorded {step.cost_before}, recomputed {cost_b}",
                    )
                )
        elif step.cost_before is not None:
            report.violations.append(
                TraceViolation(idx, "COST_BEFORE_MISMATCH", "unplaced player has no cost")
            )

        if step.to is None:
            state = state.without_player(step.player)
            if step.cost_after is not None:
                report.violations.append(
                    TraceViolation(idx, "COST_AFTER_MISMATCH", "discarded player has no cost")
                )
        else:
            if not game.spaces[step.player].is_base(step.to):
                # the replay state would leave the game's vocabulary; stop here
                report.violations.append(
                    TraceViolation(idx, "BAD_STRATEGY", f"{_fmt(step.to)} outside the space")
                )
                return report
            state = state.with_player(step.player, step.to)
            cost_a = player_cost(game, state, step.player)
            if step.cost_after != cost_a:
                report.violations.append(
                    TraceViolation(
                        idx,
                        "COST_AFTER_MISMATCH",
                        f"recorded {step.cost_after}, recomputed {cost_a}",
                    )
                )
            if step.frm is not None:
                if step.cost_before is not None and step.cost_after is not None:
                    if not step.cost_after < step.cost_before:
                        report.violations.append(
                            TraceViolation(idx, "NOT_IMPROVING", "recorded costs do not drop")
                        )
                if cost_b is not None and not cost_a < cost_b:
                    report.violations.append(
                        TraceViolation(idx, "NOT_IMPROVING", "recomputed costs do not drop")
                    )

        level = layer_level(step.phase)
        if level is None and step.phase.startswith("layer:"):
            report.violations.append(
                TraceViolation(idx, "BAD_PHASE", f"malformed layer phase {step.phase!r}")
            )
            layer_phase = None  # the next row starts its layer's checks afresh
        if not layered:
            level = None  # this game's layered rows record no potential
        potential = _expected_potential(game, state, level, lexable=lexable, insertion=insertion)
        if step.potential and potential is not None:
            expected = potential.canonical()
            if step.potential != expected:
                report.violations.append(
                    TraceViolation(
                        idx,
                        "POTENTIAL_MISMATCH",
                        f"recorded {step.potential!r}, recomputed {expected!r}",
                    )
                )

        if lexable and state.is_full(game):
            if prev_lex is not None and lex_compare(potential, prev_lex) != LESS:
                report.violations.append(
                    TraceViolation(idx, "POTENTIAL_NOT_DECREASING", "lexicographic potential")
                )
            prev_lex = potential

        if level is not None:
            if step.phase != layer_phase:
                layer_phase, layer_prev_scalar = step.phase, potential
            else:
                if step.frm is not None and step.to is not None:
                    if (
                        layer_prev_scalar is not None
                        and (potential.value.is_finite or layer_prev_scalar.value.is_finite)
                        and not potential.value < layer_prev_scalar.value
                    ):
                        report.violations.append(
                            TraceViolation(
                                idx, "POTENTIAL_NOT_DECREASING", f"level {level} scalar potential"
                            )
                        )
                layer_prev_scalar = potential

        if step.phase == "rebalance":
            round_rebalanced = True
        nxt = trace.steps[pos + 1] if pos + 1 < len(trace.steps) else None
        if insertion and (nxt is None or nxt.round != step.round):
            check_round_boundary(state, potential, step.round, idx, round_rebalanced)
            round_rebalanced = False

    if trace.final is not None and trace.final != state:
        report.violations.append(
            TraceViolation(-1, "FINAL_MISMATCH", "recorded final state differs from replay")
        )
    if trace.status == CONVERGED:
        if not state.is_full(game):
            report.violations.append(
                TraceViolation(-1, "PARTIAL_FINAL", "converged run left players unplaced")
            )
        elif not is_pure_nash(game, state):
            report.violations.append(
                TraceViolation(-1, "NOT_EQUILIBRIUM", "final profile is not a pure Nash equilibrium")
            )
    return report


def _fmt(s: frozenset[str] | None) -> str:
    return "-" if s is None else "+".join(sorted(s)) or "{}"


def _expected_potential(
    game: Game,
    state: State,
    level: int | None,
    *,
    lexable: bool,
    insertion: bool,
) -> InsertionPotentialValue | LexVector | ScalarPotential | None:
    """Recompute the potential whose canonical string the snapshot column
    should contain after this step, or None when the run records none.
    The flags say which potential the run's kind and game record; ``level``
    is a layered row's priority level, None on every other row."""
    if insertion:
        return insertion_potential(game, state)
    if lexable and state.is_full(game):
        return lex_potential_singleton(game, state)
    if level is not None:
        return level_potential(game, state, level)
    return None

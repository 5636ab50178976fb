"""Better/best-response dynamics and equilibrium construction procedures.

Three solvers, all emitting full replayable traces:

* ``run_dynamics``: plain better-response descent under a round-robin,
  first-improver, or steepest-improver policy, with a step cap;
* ``solve_consistent_layered``: ascending-priority layer construction for
  consistent-priority games over arbitrary strategy spaces; each
  shared-delay layer runs ``run_dynamics``' round-robin descent over its
  own players, which strictly lowers a scalar exact potential, and
  player-specific layers run capped displaced-player-first dynamics with
  deterministic restarts;
* ``solve_insertion``: one-at-a-time placement for singleton games with
  arbitrary (player-specific, inconsistent) priorities, evicting residents
  by the equal-priority/lower-priority case split and certifying
  termination with the two-part insertion potential; rare rounds where a
  multi-eviction hands a third player a strictly better option end by
  re-queueing her too, so every round provably ends with nobody wanting
  to move.

Who wants to move is asked of :func:`~prioritygames.congestion.best_response`,
which prices each player once per state.  Moves of matroid players are
realized as chains of single-element swaps whenever every link strictly
decreases the mover's cost; otherwise the move is recorded whole (that only
occurs across plateaus at infinite cost).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .congestion import (
    State,
    best_response,
    entry_weights,
    has_better_response,
    player_cost,
    tally,
    validate_state,
)
from .core import Game
from .costs import ExtCost, improvement
from .errors import (
    InconsistentPrioritiesError,
    InvariantViolatedError,
    LayerCapExhaustedError,
    NotSingletonError,
)
from .matroids import base_weight, greedy_min_base, lazy_path
from .potentials import (
    LESS,
    InsertionPotentialValue,
    ScalarPotential,
    _consistent_level,
    insertion_potential,
    insertion_potential_compare,
    insertion_rows,
    level_potential,
    lex_potential_singleton,
    tol_value,
)

POLICIES = ("roundrobin", "first", "best")

# row phases besides the layered solver's "layer:<level>"
PHASES = ("br", "insert", "discard", "rebalance")

CONVERGED = "Converged"
CAP_REACHED = "CapReached"

# capped attempts after the first for a player-specific layer before giving up
LAYER_RESTARTS = 10


@dataclass
class TraceStep:
    """One recorded strategy change (or placement, or discard)."""

    index: int
    round: int
    phase: str
    player: int
    frm: frozenset[str] | None  # None: the player was unplaced
    to: frozenset[str] | None  # None: the player discarded her strategy
    cost_before: ExtCost | None
    cost_after: ExtCost | None
    potential: str  # canonical potential string after this step, or ""


@dataclass
class MoveTrace:
    kind: str  # "br" | "layered" | "insertion"
    start: State
    steps: list[TraceStep] = field(default_factory=list)
    final: State | None = None
    status: str = CONVERGED


@dataclass(frozen=True)
class StepStats:
    total: int
    placements: int
    moves: int
    discards: int
    rounds: int
    by_phase: dict[str, int]


def layer_level(phase: str) -> int | None:
    """The priority level of a ``layer:<level>`` phase; None for any other phase."""
    m = re.fullmatch(r"layer:([0-9]+)", phase)
    return None if m is None else int(m.group(1))


def count_steps(trace: MoveTrace) -> StepStats:
    by_phase: dict[str, int] = {}
    placements = moves = discards = 0
    for s in trace.steps:
        by_phase[s.phase] = by_phase.get(s.phase, 0) + 1
        if s.to is None:
            discards += 1
        elif s.frm is None:
            placements += 1
        else:
            moves += 1
    rounds = len({s.round for s in trace.steps})
    return StepStats(
        total=len(trace.steps),
        placements=placements,
        moves=moves,
        discards=discards,
        rounds=rounds,
        by_phase=by_phase,
    )


# ---------------------------------------------------------------------------
# Move decomposition and trace rows


def _decompose_move(
    game: Game,
    state: State,
    player: int,
    target: frozenset[str],
    weights: dict[str, ExtCost],
) -> list[frozenset[str]]:
    """Intermediate strategies realizing the move as improving single swaps.

    Returns the successor strategies in order (the last entry is the final
    strategy, which may be a base at most as cheap as ``target``).  Falls
    back to the whole move at once when strict per-swap cost decrease is
    unattainable, which only happens across infinite-cost plateaus.
    ``weights`` are the mover's entry weights in ``state``; they price every
    link of the chain, since her own strategy never enters them.
    """
    space = game.spaces[player]
    current = state.strategy(player)
    if not space.matroid or len(current - target) <= 1:
        return [target]
    path = lazy_path(space, current, target, weights)
    costs = [base_weight(b, weights) for b in path]
    if all(b < a for a, b in zip(costs, costs[1:])):
        return path[1:]
    return [target]


def _append_move(
    trace: MoveTrace,
    round_no: int,
    phase: str,
    player: int,
    frm: frozenset[str] | None,
    to: frozenset[str],
    weights: dict[str, ExtCost],
    potential: str,
) -> None:
    """Append a move or placement row priced from the mover's entry weights.

    Her weights do not depend on her own strategy, so summed over ``frm``
    (None: she was unplaced) and over ``to`` they are her exact costs before
    and after, the others held fixed.
    """
    cost_before = None if frm is None else base_weight(frm, weights)
    _append_row(
        trace, round_no, phase, player, frm, to, cost_before, base_weight(to, weights), potential
    )


def _append_row(
    trace: MoveTrace,
    round_no: int,
    phase: str,
    player: int,
    frm: frozenset[str] | None,
    to: frozenset[str] | None,
    cost_before: ExtCost | None,
    cost_after: ExtCost | None,
    potential: str,
) -> None:
    trace.steps.append(
        TraceStep(
            len(trace.steps), round_no, phase, player, frm, to, cost_before, cost_after, potential
        )
    )


# ---------------------------------------------------------------------------
# Better-response descent


def _descend(
    game: Game,
    state: State,
    movers: list[int],
    trace: MoveTrace,
    round_no: int,
    phase: str,
    policy: str,
    cap: int,
    snapshot: Callable[[State], str],
) -> tuple[State, int, str]:
    """Better-response moves of ``movers`` until none improves or the trace
    holds ``cap`` rows; returns the state, the next round and the status.

    A scan asks each mover in turn for her :func:`best_response`; she
    improves when it is not her strategy.  Roundrobin moves the first
    improver after the last mover, first the first in ``movers``, best the
    steepest gain (ties to the earliest).  The entry weights her answer was
    priced from, kept in the state's :func:`~prioritygames.congestion.tally`
    slot, give the gain, the swaps and both costs of every row, exactly: a
    mover's weights do not depend on her own strategy.  A move is one round,
    and ``snapshot`` gives each row's potential.
    """
    rr_idx = 0
    while True:
        mover: int | None = None
        best_gain: ExtCost | None = None
        begin = rr_idx if policy == "roundrobin" else 0
        for off in range(len(movers)):
            p = movers[(begin + off) % len(movers)]
            br = best_response(game, state, p)
            if br == state.strategy(p):
                continue
            w = entry_weights(game, state, p)
            if policy != "best":
                mover, target, weights = p, br, w
                rr_idx = (begin + off + 1) % len(movers)
                break
            gain = improvement(base_weight(state.strategy(p), w), base_weight(br, w))
            if best_gain is None or best_gain < gain:
                best_gain, mover, target, weights = gain, p, br, w
        if mover is None:
            return state, round_no, CONVERGED
        if len(trace.steps) >= cap:
            return state, round_no, CAP_REACHED
        for nxt in _decompose_move(game, state, mover, target, weights):
            if len(trace.steps) >= cap:
                return state, round_no + 1, CAP_REACHED
            frm, state = state.strategy(mover), state.with_player(mover, nxt)
            _append_move(trace, round_no, phase, mover, frm, nxt, weights, snapshot(state))
        round_no += 1


def run_dynamics(
    game: Game,
    start: State,
    policy: str = "roundrobin",
    cap: int = 100_000,
) -> tuple[State, MoveTrace]:
    """Descend better responses until a pure Nash equilibrium or the cap.

    Every recorded step strictly decreases the mover's cost.  The returned
    status is ``Converged`` exactly when no player has a better response at
    the final profile; hitting the cap is a status, not an error.  A
    negative cap, like an unknown policy, raises ``ValueError``.

    All players run the :func:`_descend` scan, which the shared-delay
    layers of :func:`solve_consistent_layered` run too.  Rows of
    shared-delay singleton games carry the lexicographic potential.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    validate_state(game, start, full=True)
    lexable = game.is_singleton_game() and not game.player_specific

    def snapshot(s: State) -> str:
        return lex_potential_singleton(game, s).canonical() if lexable else ""

    trace = MoveTrace(kind="br", start=start)
    state, _, trace.status = _descend(
        game, start, list(game.players()), trace, 0, "br", policy, cap, snapshot
    )
    trace.final = state
    return state, trace


# ---------------------------------------------------------------------------
# Layered construction for consistent priorities


def solve_consistent_layered(game: Game) -> tuple[State, MoveTrace]:
    """Build an equilibrium level by level, lower priorities first.

    Once a level's players sit at a mutual best response given the frozen
    more-prioritized layers, later layers cannot disturb them (their counts
    never enter a lower level's delay arguments), so the stacked profile is
    an equilibrium of the whole game.

    A layer first places its players one by one on their cheapest strategy.
    A shared-delay layer then runs :func:`run_dynamics`' roundrobin scan
    over its players; its rows record the level's exact scalar potential,
    which must strictly drop with each move.  Player-specific layers run
    displaced-player-first dynamics under a cap of n^2 * m * (#levels)
    steps with ``LAYER_RESTARTS`` deterministic restarts from rotated bases;
    exhausting them raises LAYER_CAP_EXHAUSTED rather than returning.
    """
    if not game.priorities.consistent:
        raise InconsistentPrioritiesError("layered construction needs consistent priorities")
    level_of = {i: _consistent_level(game, i) for i in game.players()}
    levels = sorted(set(level_of.values()))
    cap = max(16, game.n_players**2 * len(game.resources) * len(levels))
    trace = MoveTrace(kind="layered", start=State({}))
    outer = State({})
    round_no = 0
    for q in levels:
        layer = sorted(i for i in game.players() if level_of[i] == q)
        solve_layer = _solve_layer_capped if game.player_specific else _solve_layer_potential
        outer, round_no = solve_layer(game, outer, q, layer, trace, round_no, cap)
    trace.final = outer
    trace.status = CONVERGED
    return outer, trace


def _place(
    game: Game,
    state: State,
    layer: list[int],
    trace: MoveTrace,
    round_no: int,
    phase: str,
    pick: Callable[[int, int, dict[str, ExtCost]], frozenset[str]],
    snapshot: Callable[[State], str],
) -> tuple[State, int]:
    """Put the j-th player i of ``layer`` on ``pick(j, i, her weights)``, a round each."""
    for j, i in enumerate(layer):
        weights = entry_weights(game, state, i)
        s = pick(j, i, weights)
        state = state.with_player(i, s)
        _append_move(trace, round_no, phase, i, None, s, weights, snapshot(state))
        round_no += 1
    return state, round_no


def _solve_layer_potential(
    game: Game, outer: State, q: int, layer: list[int], trace: MoveTrace, round_no: int, cap: int
) -> tuple[State, int]:
    """Cheapest placement, then roundrobin descent of the level potential."""
    phase = f"layer:{q}"
    last: ScalarPotential | None = None

    def placed(state: State) -> str:
        nonlocal last
        last = level_potential(game, state, q)
        return last.canonical()

    def moved(state: State) -> str:
        nonlocal last
        before, last = last, level_potential(game, state, q)
        finite = before.value.is_finite or last.value.is_finite
        if finite and not last.value < before.value:
            raise InvariantViolatedError(
                f"level {q} potential did not drop at trace row {len(trace.steps)}:"
                f" {before.canonical()} -> {last.canonical()}"
            )
        return last.canonical()

    cheapest = lambda j, i, weights: greedy_min_base(game.spaces[i], weights)  # noqa: E731
    working, round_no = _place(game, outer, layer, trace, round_no, phase, cheapest, placed)
    # the potential strictly drops, so the row limit is unreachable for finite delays
    limit = len(trace.steps) + 8 * cap
    working, round_no, status = _descend(
        game, working, layer, trace, round_no, phase, "roundrobin", limit, moved
    )
    if status == CAP_REACHED:
        raise LayerCapExhaustedError(f"level {q} descent exceeded the safety cap")
    return working, round_no


def _solve_layer_capped(
    game: Game, outer: State, q: int, layer: list[int], trace: MoveTrace, round_no: int, cap: int
) -> tuple[State, int]:
    """Displaced-player-first capped dynamics with deterministic restarts."""
    phase = f"layer:{q}"
    checkpoint = len(trace.steps)

    def pick(j: int, i: int, weights: dict[str, ExtCost]) -> frozenset[str]:
        """Cheapest first; each restart rotates the j-th player's bases."""
        if attempt == 0:
            return greedy_min_base(game.spaces[i], weights)
        bases = game.spaces[i].all_bases()
        return bases[(attempt + j) % len(bases)]

    for attempt in range(LAYER_RESTARTS + 1):
        del trace.steps[checkpoint:]
        working, round_no = _place(game, outer, layer, trace, round_no, phase, pick, lambda s: "")

        steps_used = 0
        pending = deque(layer)
        queued = set(layer)
        while pending:
            i = pending.popleft()
            queued.discard(i)
            br = best_response(game, working, i)
            if br != working.strategy(i):
                if steps_used >= cap:
                    break
                others_before = {j: player_cost(game, working, j) for j in layer if j != i}
                weights = entry_weights(game, working, i)
                for nxt in _decompose_move(game, working, i, br, weights):
                    frm, working = working.strategy(i), working.with_player(i, nxt)
                    _append_move(trace, round_no, phase, i, frm, nxt, weights, "")
                    steps_used += 1
                round_no += 1
                displaced = [
                    j for j in layer if j != i and others_before[j] < player_cost(game, working, j)
                ]
                for j in sorted(displaced, reverse=True):
                    if j not in queued:
                        pending.appendleft(j)
                        queued.add(j)
                pending.append(i)
                queued.add(i)
            if not pending:
                # a player whose options improved without her cost rising
                stragglers = [
                    j for j in layer if best_response(game, working, j) != working.strategy(j)
                ]
                pending.extend(stragglers)
                queued.update(stragglers)
        else:
            return working, round_no
    raise LayerCapExhaustedError(
        f"level {q} dynamics failed to converge within {LAYER_RESTARTS + 1} capped attempts"
    )


# ---------------------------------------------------------------------------
# Insertion algorithm for singleton games


def _retally(
    game: Game, state: State, touched: str, reach: dict[str, list[int]], tol: dict[int, int]
) -> InsertionPotentialValue:
    """The insertion potential after a move on ``touched``.

    A move changes only ``touched``'s counts, and a tolerance reads only the
    counts in its owner's ground, so just the players reaching ``touched``
    are refreshed in ``tol`` (and dropped when no longer placed).  The
    state's one :func:`~prioritygames.congestion.tally` table serves every
    refreshed tolerance and the rows, and then the round's incentive checks
    on the same state.
    """
    for p in reach[touched]:
        if state.covers(p):
            tol[p] = tol_value(game, state, p)
        else:
            tol.pop(p, None)
    return InsertionPotentialValue(
        rows=insertion_rows(game, tally(game, state)), tol_sum=sum(tol.values())
    )


def solve_insertion(game: Game) -> tuple[State, MoveTrace]:
    """Place players one at a time on their cheapest resource, evicting
    residents that start wanting to leave.

    Each round pops an unplaced player from a FIFO queue and adds her to the
    resource imposing minimum cost, chosen by ``greedy_min_base``, the one
    cheapest-strategy rule of all three solvers (ties: smallest resource
    id, the smallest sorted id list of a singleton space).  Residents
    of that resource that now have a better response must be weakly less
    prioritized there; if one shares the newcomer's priority, exactly that
    one (smallest id) discards, otherwise all strictly less prioritized
    improvers discard.  Discarded players re-enter the queue.  The two-part
    insertion potential strictly increases across these rounds; the value
    recorded on a round's last row is the one compared.

    One wrinkle: a multi-eviction can thin a resource's crowd faster than
    the newcomer fills it, handing some player *elsewhere* a strictly
    better option mid-run (her view of the resource moves from d(x, y+1) to
    d(x+1, y-1), which monotonicity does not order).  Each round therefore
    ends by discarding any such stray improvers too (phase ``rebalance``),
    one at a time, until no placed player has a better response.  That exit
    condition is the round invariant "no covered player wants to move", so
    an emptied queue is a pure Nash equilibrium by construction, and
    ``certify_trace`` re-verifies it after every round.  Rebalance rounds
    are rare, sit outside the potential's strict-increase guarantee, and
    are covered by the safety cap.

    The stray scan asks only players whose ground holds a resource touched
    this round (the newcomer's, or one a stray left).  That is exact: when
    the round began nobody had a better response, and a player's options
    read only the counts of resources in her ground, which for everybody
    else are unchanged.  For the same reason the recorded potentials are
    kept up to date instead of rebuilt: after each row only the placed
    players reaching the touched resource get their tolerance recomputed,
    and the rows are read off one level-count table.  ``certify_trace``
    still rebuilds every row's potential from the replayed state, so a
    slip in this bookkeeping shows as a potential mismatch.
    """
    if not game.is_singleton_game():
        raise NotSingletonError("the insertion algorithm needs singleton strategy spaces")
    trace = MoveTrace(kind="insertion", start=State({}))
    state = State({})
    queue: deque[int] = deque(sorted(game.players()))
    round_no = 0
    prev_potential = insertion_potential(game, state)
    # reach[r]: the players whose ground holds r, the only ones whose
    # tolerance reads r's counts; tol: every placed player's tolerance
    reach: dict[str, list[int]] = {r: [] for r in game.resources}
    for p in game.players():
        for r in game.ground_of(p):
            reach[r].append(p)
    tol: dict[int, int] = {}
    safety = 1000 + game.n_players**4 * len(game.resources) * (
        max((game.priorities.max_level(r) for r in game.resources), default=1) + 1
    )

    def discard(phase: str, j: int) -> InsertionPotentialValue:
        """Unplace ``j``, requeue her and record the row; the new potential."""
        nonlocal state
        frm = state.strategy(j)
        (held,) = frm
        cost = player_cost(game, state, j)  # priced on the state she leaves
        state = state.without_player(j)
        queue.append(j)
        potential = _retally(game, state, held, reach, tol)
        _append_row(trace, round_no, phase, j, frm, None, cost, None, potential.canonical())
        return potential

    while queue:
        if round_no >= safety:  # the potential argument makes this unreachable
            raise InvariantViolatedError(
                f"insertion algorithm exceeded its safety cap of {safety} rounds"
            )
        i = queue.popleft()
        weights = entry_weights(game, state, i)
        placed = greedy_min_base(game.spaces[i], weights)
        (rid,) = placed
        # the residents of rid, with their tolerances before she joins them
        residents = {p: tol[p] for p, s in state.items() if rid in s}
        state = state.with_player(i, placed)
        potential = _retally(game, state, rid, reach, tol)
        # her entry weight at rid is exactly her cost once placed there
        _append_row(
            trace, round_no, "insert", i, None, placed, None, weights[rid], potential.canonical()
        )

        improvers = [p for p in residents if has_better_response(game, state, p)]
        mine = game.priority(rid, i)
        outranking = [p for p in improvers if game.priority(rid, p) < mine]
        if outranking:
            raise InvariantViolatedError(
                f"improvers {outranking} on resource {rid} outrank newcomer {i}"
            )
        equal = [p for p in improvers if game.priority(rid, p) == mine]
        if improvers and equal:
            # exactly one equal-priority improver leaves (case B1)
            j_star = min(equal)
            same_before = sum(1 for p in residents if game.priority(rid, p) == mine)
            tol_out = residents[j_star]
            if tol_out != same_before:
                raise InvariantViolatedError(
                    f"leaving player {j_star} on resource {rid} has tolerance {tol_out},"
                    f" expected {same_before}"
                )
            potential = discard("discard", j_star)
            tol_in = tol[i]
            if tol_in < same_before + 1:
                raise InvariantViolatedError(
                    f"newcomer {i} on resource {rid} has tolerance {tol_in},"
                    f" expected at least {same_before + 1}"
                )
        elif improvers:
            # every improver is strictly less prioritized here (case B2)
            for j in sorted(improvers):
                potential = discard("discard", j)

        # restore the round invariant: multi-evictions can leave a player on
        # another resource strictly better off moving; discard those too,
        # one at a time (evicting one stray can already pacify the next).
        # Only players reaching a resource touched this round can have gained
        # an option: nobody could improve when the round began.
        rebalanced = False
        touched = {rid}
        while True:
            suspects = sorted({p for r in touched for p in reach[r] if state.covers(p)})
            stray = next((p for p in suspects if has_better_response(game, state, p)), None)
            if stray is None:
                break
            rebalanced = True
            touched |= state.strategy(stray)
            potential = discard("rebalance", stray)

        if not rebalanced and insertion_potential_compare(prev_potential, potential) != LESS:
            raise InvariantViolatedError(
                f"insertion potential did not rise in round {round_no}"
                f" (newcomer {i} on {rid}): {prev_potential.canonical()}"
                f" -> {potential.canonical()}"
            )
        prev_potential = potential
        round_no += 1
    trace.final = state
    trace.status = CONVERGED
    return state, trace

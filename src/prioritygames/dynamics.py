"""Better/best-response dynamics and equilibrium construction procedures.

Three solvers, all emitting full replayable traces:

* ``run_dynamics``: plain better-response descent under a round-robin,
  first-improver, or steepest-improver policy, with a step cap;
* ``solve_consistent_layered``: ascending-priority layer construction for
  consistent-priority games over arbitrary strategy spaces; each
  shared-delay layer runs ``run_dynamics``' round-robin descent over its
  own players, which strictly lowers a scalar exact potential read from
  the layer's :class:`~prioritygames.potentials.LevelRun`, and
  player-specific layers run capped displaced-player-first dynamics with
  deterministic restarts;
* ``solve_insertion``: one-at-a-time placement for singleton games with
  arbitrary (player-specific, inconsistent) priorities, evicting residents
  by the equal-priority/lower-priority case split and certifying
  termination with the two-part insertion potential; rare rounds where a
  multi-eviction hands a third player a strictly better option end by
  re-queueing her too, so every round provably ends with nobody wanting
  to move.

The descent asks who wants to move by pricing her entry weights once and
applying :func:`~prioritygames.congestion.best_response`'s rule to them,
and keeps every answer a row cannot have changed, an improver's included:
it re-asks a player only when a row at her level or above touched her
ground (the level rule of :func:`_drop_answers`).  The insertion solver
reads the same verdict from the tolerance records of its
:class:`~prioritygames.potentials.InsertionRun`, which re-prices them by the
same rule, read off the changed count rows.  Every solver steps from state
to state by :func:`~prioritygames.congestion.step_state`, which derives the
new state's count table from the old one.  Moves of matroid players are
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
    player_cost,
    reach_index,
    step_state,
    validate_state,
)
from .core import Game
from .costs import ExtCost
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
    InsertionRun,
    LevelRun,
    LexRun,
    falls,
    insertion_potential_compare,
)

POLICIES = ("roundrobin", "first", "best")

# a mover's kept answer: her best response, its entry weights and her gain
# as an unreduced (numerator, denominator) pair, None when the best response
# is her own strategy (settled)
Answer = tuple[frozenset[str], dict[str, ExtCost], tuple[int, int] | None]

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
    """The priority level of a ``layer:<level>`` phase, the level written
    as a canonical decimal >= 1; None for any other phase."""
    m = re.fullmatch(r"layer:([1-9][0-9]*)", phase)
    return None if m is None else int(m.group(1))


def fits_kind(phase: str, kind: str) -> bool:
    """Whether a row of this phase belongs in a trace of this kind: ``br``
    rows in a br trace, ``insert``, ``discard`` and ``rebalance`` rows in
    an insertion trace, ``layer:<level>`` rows in a layered trace."""
    if kind == "layered":
        return layer_level(phase) is not None
    return phase in {"br": ("br",), "insertion": ("insert", "discard", "rebalance")}.get(kind, ())


def opens_round(phase: str) -> bool:
    """Whether a row of this phase opens a round: every row but a discard or
    a rebalance, which belong to the round of the insertion before them."""
    return phase not in ("discard", "rebalance")


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
    cost_after = base_weight(to, weights)
    trace.steps.append(
        TraceStep(
            len(trace.steps), round_no, phase, player, frm, to, cost_before, cost_after, potential
        )
    )


# ---------------------------------------------------------------------------
# Better-response descent


def _drop_answers(
    game: Game,
    state: State,
    answers: dict[int, Answer],
    reach: dict[str, list[tuple[int, int]]],
    mover: int,
    frm: frozenset[str],
    to: frozenset[str],
) -> None:
    """Drop the kept answers that the row ``frm -> to`` of ``mover``, which
    led to ``state``, can have changed.

    The row changes counts only on ``frm ^ to``, and only at m's level
    there (m: the mover; an empty ``frm`` or ``to`` places or unplaces
    her).  So it can affect only m and the players p of ``reach[r]`` (a
    :func:`~prioritygames.congestion.reach_index`) with
    ``priority(r, p) >= priority(r, m)`` for some r in ``frm ^ to``: the
    level rule.  m's own answer is always dropped.  For each other such p
    and r:

    - an improver's answer is dropped;
    - a settled answer (her own strategy, which :func:`_descend` keeps only
      at finite cost) is dropped when either m left r and p does not use
      it, or m joined r and p uses it.

    Every answer kept is the one asking again would give:

    - p's entry weight at r reads only the counts on r at levels up to
      hers, and not her own strategy, so p's weights all stay as they were
      unless the level rule names her; a kept improver's weights, best
      response and gain are those of ``state``;
    - a settled p keeps her answer on a narrower rule, whose weights may
      have moved and are never read: delays are nondecreasing in x and y
      (``build_game`` checks it), so r got cheaper where m left it and
      dearer where she joined it.  Unless one of the two drop cases holds,
      p's chosen elements only got cheaper and her others only dearer, and
      a minimum-weight base of finite weight stays one, on any space.

    Finite weight matters: a base of infinite weight can share an infinite
    element with a cheaper-elsewhere base, which that element turning
    finite exposes.
    """
    answers.pop(mover, None)
    for r in frm ^ to:
        q, joined = game.priority(r, mover), r in to
        for p, level in reach[r]:
            if level >= q and (answer := answers.get(p)) is not None and (
                answer[2] is not None or (r in state.strategy(p)) == joined
            ):
                del answers[p]


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

    A scan asks each mover in turn: her entry weights, priced once, and
    ``greedy_min_base`` over them; she improves when the greedy base is
    strictly cheaper than her strategy, :func:`best_response`'s rule.
    Roundrobin moves the first improver after the last mover, first the
    first in ``movers``, best the steepest gain (ties to the earliest).  The
    entry weights her answer was priced from give the gain, the swaps and
    both costs of every row, exactly: a mover's weights do not depend on
    her own strategy.  A move is one round, and ``snapshot`` gives each
    row's potential.  Each link steps the state by
    :func:`~prioritygames.congestion.step_state`, so the new state's count
    table is derived from the old one.

    A gain is ranked as an unreduced pair of ints, never a Fraction: own
    cost a/b less new cost c/d is ``(a*d - c*b, b*d)``, and ``(1, 0)`` when
    her own cost is infinite (the new one, cheaper, is finite).  Pairs are
    compared by cross-multiplying, as :class:`~prioritygames.costs.ExtCost`
    compares costs: the denominators of finite gains are positive, and
    ``(1, 0)`` ranks above every finite gain and ties every infinite one.
    So the ranking is :func:`~prioritygames.costs.improvement`'s, with no
    gcd and no object per gain; a gain never leaves the descent.

    Every asked mover's answer is kept in ``answers``: her best response,
    the entry weights it was priced from, and her gain, None when the
    answer is her own strategy (settled).  A kept answer is read instead of
    asking again until a move can have changed it: after each link,
    :func:`_drop_answers` drops exactly those.  Infinite-cost answers that
    are her own strategy are not kept.  Every kept answer is the one asking
    would give, weights and gain included for an improver, so every policy
    picks the movers, in the order, that asking everyone would.
    """
    answers: dict[int, Answer] = {}
    reach = reach_index(game, movers)
    rr_idx = 0
    while True:
        mover: int | None = None
        best_gain: tuple[int, int] | None = None
        begin = rr_idx if policy == "roundrobin" else 0
        for off in range(len(movers)):
            p = movers[(begin + off) % len(movers)]
            if (answer := answers.get(p)) is None:
                w = entry_weights(game, state, p)
                br, mine = greedy_min_base(game.spaces[p], w), state.strategy(p)
                own, new = base_weight(mine, w), base_weight(br, w)
                if new < own:
                    gain = (
                        (1, 0)
                        if own.den == 0
                        else (own.num * new.den - new.num * own.den, own.den * new.den)
                    )
                    answer = answers[p] = (br, w, gain)
                elif own.is_finite:
                    answer = answers[p] = (mine, w, None)
                else:
                    continue
            br, w, gain = answer
            if gain is None:
                continue
            if policy != "best":
                mover, target, weights = p, br, w
                rr_idx = (begin + off + 1) % len(movers)
                break
            if best_gain is None or best_gain[0] * gain[1] < gain[0] * best_gain[1]:
                best_gain, mover, target, weights = gain, p, br, w
        if mover is None:
            return state, round_no, CONVERGED
        if len(trace.steps) >= cap:
            return state, round_no, CAP_REACHED
        for nxt in _decompose_move(game, state, mover, target, weights):
            if len(trace.steps) >= cap:
                return state, round_no + 1, CAP_REACHED
            frm, state = state.strategy(mover), step_state(game, state, mover, nxt)
            _drop_answers(game, state, answers, reach, mover, frm, nxt)
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
    shared-delay singleton games carry the lexicographic potential, read
    from one :class:`~prioritygames.potentials.LexRun` per run, which
    re-derives only the blocks of the resources a row changed.  The start
    is validated once, and every later state, reached by legal moves, is
    not validated again.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    validate_state(game, start, full=True)
    lex = LexRun(game) if game.is_singleton_game() and not game.player_specific else None

    def snapshot(s: State) -> str:
        return "" if lex is None else lex.at(s).canonical()

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
    read from one :class:`~prioritygames.potentials.LevelRun`, which must
    drop with each move (:func:`~prioritygames.potentials.falls`).
    Player-specific layers run displaced-player-first dynamics under a cap
    of n^2 * m * (#levels) steps with ``LAYER_RESTARTS`` deterministic
    restarts from rotated bases; exhausting them raises
    LAYER_CAP_EXHAUSTED rather than returning.
    """
    if not game.priorities.consistent:
        raise InconsistentPrioritiesError("layered construction needs consistent priorities")
    level_of = {i: game.priorities.level(i) for i in game.players()}
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
    snapshot: Callable[[State], str],
    attempt: int = 0,
) -> tuple[State, int]:
    """Put each player of ``layer`` on her cheapest strategy, a round each;
    restart ``attempt`` > 0 puts the j-th one on her bases' entry
    ``attempt + j`` instead, rotated."""
    for j, i in enumerate(layer):
        weights = entry_weights(game, state, i)
        if attempt == 0:
            s = greedy_min_base(game.spaces[i], weights)
        else:
            bases = game.spaces[i].all_bases()
            s = bases[(attempt + j) % len(bases)]
        state = step_state(game, state, i, s)
        _append_move(trace, round_no, phase, i, None, s, weights, snapshot(state))
        round_no += 1
    return state, round_no


def _solve_layer_potential(
    game: Game, outer: State, q: int, layer: list[int], trace: MoveTrace, round_no: int, cap: int
) -> tuple[State, int]:
    """Cheapest placement, then roundrobin descent of the level potential,
    read from one :class:`~prioritygames.potentials.LevelRun` of the layer."""
    phase = f"layer:{q}"
    run = LevelRun(game, outer, q)

    def moved(state: State) -> str:
        before, after = run.value, run.at(state)
        if not falls(after, before):
            raise InvariantViolatedError(
                f"level {q} potential did not drop at trace row {len(trace.steps)}:"
                f" {before.canonical()} -> {after.canonical()}"
            )
        return after.canonical()

    placed = lambda state: run.at(state).canonical()  # noqa: E731
    working, round_no = _place(game, outer, layer, trace, round_no, phase, placed)
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
    checkpoint, round0 = len(trace.steps), round_no
    for attempt in range(LAYER_RESTARTS + 1):
        del trace.steps[checkpoint:]
        working, round_no = _place(game, outer, layer, trace, round0, phase, lambda s: "", attempt)

        steps_used = 0
        pending = deque(layer)
        queued = set(layer)
        while pending:
            i = pending.popleft()
            queued.discard(i)
            weights = entry_weights(game, working, i)
            br = greedy_min_base(game.spaces[i], weights)
            if base_weight(br, weights) < base_weight(working.strategy(i), weights):
                if steps_used >= cap:
                    break
                others_before = {j: player_cost(game, working, j) for j in layer if j != i}
                for nxt in _decompose_move(game, working, i, br, weights):
                    frm, working = working.strategy(i), step_state(game, working, i, nxt)
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

    Who has a better response, and every recorded potential, is read from
    one :class:`~prioritygames.potentials.InsertionRun`, read by ``at``
    after each row.  It keeps each placed player's tolerance record, whose
    ``improvable`` flag is exactly ``has_better_response`` for a singleton
    player, and re-prices only the records the level rule names: a row of
    mover m on resource r changes r's count row only at m's level q there,
    so only the players p of ``reach[r]`` with ``priority(r, p) >= q``, m
    among them.  A resident improves when she is in ``run.improvable``, and
    the stray scan discards its least member until it is empty.  That is
    the least improver among the players whose ground holds a resource
    touched this round: the set is empty when a round begins (the round
    invariant), and a row changes only the records of players reaching a
    resource it touched.  ``certify_trace`` reads its own run, and at the
    end holds the final state to the greedy ``is_pure_nash`` and its
    running potential to a fresh ``insertion_potential``.
    """
    if not game.is_singleton_game():
        raise NotSingletonError("the insertion algorithm needs singleton strategy spaces")
    trace = MoveTrace(kind="insertion", start=State({}))
    state = State({})
    queue: deque[int] = deque(sorted(game.players()))
    round_no = 0
    run = InsertionRun(game, state)
    prev_potential, reach = run.value, run.reach
    safety = 1000 + game.n_players**4 * len(game.resources) * (
        max((game.priorities.max_level(r) for r in game.resources), default=1) + 1
    )

    def discard(phase: str, j: int) -> InsertionPotentialValue:
        """Unplace ``j``, requeue her and record the row; the new potential."""
        nonlocal state
        frm = state.strategy(j)
        cost = player_cost(game, state, j)  # priced on the state she leaves
        state = step_state(game, state, j, None)
        potential = run.at(state, j)
        queue.append(j)
        trace.steps.append(
            TraceStep(
                len(trace.steps), round_no, phase, j, frm, None, cost, None, potential.canonical()
            )
        )
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
        # the residents of rid, ascending, with their tolerances before she joins them
        residents = {
            p: run.records[p].tol
            for p, _ in reach[rid]
            if p in run.records and rid in state.strategy(p)
        }
        state = step_state(game, state, i, placed)
        potential = run.at(state, i)
        text = potential.canonical()
        # her entry weight at rid is exactly her cost once placed there
        trace.steps.append(
            TraceStep(
                len(trace.steps), round_no, "insert", i, None, placed, None, weights[rid], text
            )
        )

        improvers = [p for p in residents if p in run.improvable]
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
            tol_in = run.records[i].tol
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
        # least first, one at a time (evicting one stray can already pacify
        # the next)
        rebalanced = bool(run.improvable)
        while run.improvable:
            potential = discard("rebalance", min(run.improvable))

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

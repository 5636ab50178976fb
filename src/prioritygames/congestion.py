"""Congestion counting and cost evaluation over full or partial assignments.

A :class:`State` maps a subset of players to strategies; a profile is a
state covering everyone.  Every function here returns what a pure function
of its arguments would; :func:`tally` only remembers the last state it
counted, with its count table, and :func:`step_state` hands that slot on to
the state it steps to.  Costs of players outside a state are an error,
never zero (the insertion machinery relies on that distinction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .costs import ExtCost, sum_costs
from .core import Game, Points
from .errors import PlayerNotPlacedError, ValidationFailed, Violation
from .matroids import base_weight, greedy_min_base


class State:
    """An immutable partial assignment of strategies to players.

    Strategies may be given as resource sets or, for singleton strategies,
    bare resource ids.
    """

    __slots__ = ("_strats", "_key")

    def __init__(self, strategies: Mapping[int, Iterable[str] | str]):
        strats: dict[int, frozenset[str]] = {}
        for p, s in strategies.items():
            strats[int(p)] = frozenset([s]) if isinstance(s, str) else frozenset(s)
        object.__setattr__(self, "_strats", strats)
        object.__setattr__(self, "_key", None)

    def players(self) -> list[int]:
        return sorted(self._strats)

    def covers(self, player: int) -> bool:
        return player in self._strats

    def strategy(self, player: int) -> frozenset[str]:
        try:
            return self._strats[player]
        except KeyError:
            raise PlayerNotPlacedError(f"player {player} is not covered by this state") from None

    def items(self) -> list[tuple[int, frozenset[str]]]:
        return sorted(self._strats.items())

    @classmethod
    def _of(cls, strats: dict[int, frozenset[str]]) -> "State":
        """A state over an already normalized dict, which it takes over."""
        new = object.__new__(cls)
        object.__setattr__(new, "_strats", strats)
        object.__setattr__(new, "_key", None)
        return new

    def with_player(self, player: int, strategy: Iterable[str] | str) -> "State":
        """This state with ``player`` on ``strategy``; only her entry is normalized."""
        d = dict(self._strats)
        d[int(player)] = frozenset([strategy]) if isinstance(strategy, str) else frozenset(strategy)
        return State._of(d)

    def without_player(self, player: int) -> "State":
        d = dict(self._strats)
        d.pop(player, None)
        return State._of(d)

    def copy(self) -> "State":
        """An equal state that is a new object, so no :func:`tally` slot holds it."""
        return State._of(dict(self._strats))

    def is_full(self, game: Game) -> bool:
        # exact: ``build_game`` keys the spaces by exactly the players 1..n
        return self._strats.keys() == game.spaces.keys()

    def _sorted_key(self) -> tuple:
        """The sorted (player, sorted strategy) pairs, built on first use.

        Only equality and hashing read it, so a state the solvers step
        through and never compare is never sorted.
        """
        if self._key is None:
            pairs = sorted((p, tuple(sorted(s))) for p, s in self._strats.items())
            object.__setattr__(self, "_key", tuple(pairs))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self._sorted_key() == other._sorted_key()

    def __hash__(self) -> int:
        return hash(self._sorted_key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}->{'+'.join(sorted(s))}" for p, s in self.items())
        return f"State({inner})"


def profile(strategies: Mapping[int, Iterable[str] | str]) -> State:
    return State(strategies)


def validate_state(game: Game, state: State, *, full: bool = False) -> None:
    """Raise ValidationFailed unless every covered strategy is legal."""
    violations = []
    players = game.players()
    for p, s in state.items():
        if p not in players:
            violations.append(Violation("UNKNOWN_PLAYER", f"player {p}", "not in the game"))
            continue
        if not game.spaces[p].is_base(s):
            violations.append(
                Violation(
                    "BAD_STRATEGY", f"player {p}", f"{sorted(s)} not in the strategy space"
                )
            )
    if full:
        missing = set(players) - set(state.players())
        if missing:
            violations.append(
                Violation("PARTIAL_PROFILE", "profile", f"players {sorted(missing)} unplaced")
            )
    if violations:
        raise ValidationFailed("invalid state", violations)


@dataclass(frozen=True)
class CongestionView:
    """Per-(state, resource) congestion counts split by priority level."""

    resource: str
    total: int
    level_counts: tuple[tuple[int, int], ...]  # (level, count), ascending levels

    @property
    def levels(self) -> tuple[int, ...]:
        """Present priority levels, ascending (the nonempty ones only)."""
        return tuple(q for q, _ in self.level_counts)

    @property
    def p_star(self) -> int | None:
        """Minimum present priority; None encodes +infinity (empty resource)."""
        return self.level_counts[0][0] if self.level_counts else None

    def count_at(self, level: int) -> int:
        for q, c in self.level_counts:
            if q == level:
                return c
        return 0

    def below(self, level: int) -> int:
        """Players with strictly smaller (more prioritized) level."""
        return sum(c for q, c in self.level_counts if q < level)


def congestion_view(game: Game, state: State, resource: str) -> CongestionView:
    """The resource's row of the state's :func:`level_counts` table."""
    row = tally(game, state).get(resource, {})
    return CongestionView(
        resource=resource, total=sum(row.values()), level_counts=tuple(sorted(row.items()))
    )


LevelCounts = dict[str, dict[int, int]]


def level_counts(game: Game, state: State) -> LevelCounts:
    """Per resource, how many covered players sit at each priority level.

    One pass over the state's strategies; resources nobody uses are absent.
    Every call builds a fresh table; the congestion queries below read
    theirs through :func:`tally`.
    """
    table: LevelCounts = {}
    for p, s in state._strats.items():
        for r in s:
            row = table.setdefault(r, {})
            q = game.priority(r, p)
            row[q] = row.get(q, 0) + 1
    return table


def tally(game: Game, state: State) -> LevelCounts:
    """The state's :func:`level_counts` table, counted once per state object.

    The game keeps the last state counted here in one slot, with its table
    and nothing else; only this module reads the slot.  A query on that same
    state object reads the slot; any other state, even an equal one, is
    counted afresh and replaces it, after the count succeeds.  A state
    reached by :func:`step_state` from the state in the slot takes the slot
    with a table derived from its predecessor's, not counted.  States are
    immutable, so a kept table is what a fresh count would give.  Every
    cost, weight, potential and tolerance query reads its counts here, so a
    solver, or ``certify_trace``'s replay, that moves from state to state
    counts each state once.  The table is shared: read it, never change it.
    """
    kept = game._tally
    if kept is not None and kept[0] is state:
        return kept[1]
    table = level_counts(game, state)
    object.__setattr__(game, "_tally", (state, table))
    return table


def step_state(
    game: Game, state: State, player: int, strategy: frozenset[str] | None
) -> State:
    """``state`` with ``player`` placed on or moved to ``strategy``, or
    unplaced when it is None.

    When the :func:`tally` slot holds ``state`` itself, the new state's
    table is derived from the kept one instead of counted afresh: the step
    changes counts only on the resources in exactly one of her old and new
    strategies, and only at her level there, by one.  The derived table is
    the one :func:`level_counts` would build, row for row; its rows hold no
    zero counts and it has no empty rows.  The kept table is copied, never
    changed, and the slot takes the new state only once the table is
    built.  When the slot holds any other state, the new state is counted
    on its first query, as any state is.  The solvers step their states
    here, and so does ``certify_trace``, from its own copy of the trace's
    start.
    """
    new = state.without_player(player) if strategy is None else state.with_player(player, strategy)
    kept = game._tally
    if kept is not None and kept[0] is state:
        frm = state._strats.get(player, frozenset())
        to = new._strats.get(player, frozenset())
        table = dict(kept[1])
        for r in frm ^ to:
            q = game.priority(r, player)
            row = dict(table.get(r, {}))
            count = row.get(q, 0) + (1 if r in to else -1)
            if count:
                row[q] = count
            else:
                del row[q]
            if row:
                table[r] = row
            else:
                del table[r]
        object.__setattr__(game, "_tally", (new, table))
    return new


def reach_index(game: Game, players: Iterable[int]) -> dict[str, list[tuple[int, int]]]:
    """reach[r]: ``(p, priority(r, p))`` for each of the given players whose
    ground holds r, ascending by p, for every resource r of the game."""
    reach: dict[str, list[tuple[int, int]]] = {r: [] for r in game.resources}
    for p in sorted(players):
        for r in game.ground_of(p):
            reach[r].append((p, game.priority(r, p)))
    return reach


def count_below(row: Mapping[int, int], level: int) -> int:
    """Players in a level-count row with strictly smaller level."""
    return sum(c for q, c in row.items() if q < level)


def entry_price(row: Mapping[int, int], q: int, table: Points, y: int) -> ExtCost:
    """``table[x, y]`` for a level-q player on a resource with level-count
    ``row``: one pass counts x, the players below q, and adds those at q to
    ``y``, 0 for a player the row counts and 1 for one who would join it."""
    x = 0
    for level, c in row.items():
        if level < q:
            x += c
        elif level == q:
            y += c
    return table[x, y]


def player_cost(game: Game, state: State, player: int) -> ExtCost:
    """Total delay over the player's strategy; saturates at infinity.

    The counts come from the state's :func:`tally` table; the prices are
    read by her plan, as in :func:`entry_weights`.
    """
    strategy = state.strategy(player)  # raises PLAYER_NOT_PLACED if absent
    counts = tally(game, state)
    return sum_costs(
        [entry_price(counts[r], q, table, 0) for r, q, table in game.plan(player) if r in strategy]
    )


def entry_weights(game: Game, state: State, player: int) -> dict[str, ExtCost]:
    """What each resource would cost the player, opponents held fixed.

    The weight at r is exactly the delay she would face with r in her
    strategy, read from the state's :func:`tally` table: where she already
    uses r her own membership is counted once, elsewhere she joins r's
    count at her level.  Summing weights over any candidate strategy
    reproduces its exact cost, which is what makes greedy best responses
    exact for matroid spaces.  Every call prices her whole ground afresh;
    a caller that needs the weights twice keeps them.

    The walk follows her :meth:`~prioritygames.core.Game.plan`, compiled
    once per game: per (r, her level q, her point table on r),
    :func:`entry_price` reads the weight off r's row.
    """
    counts = tally(game, state)
    own = state._strats.get(player, frozenset())
    return {
        r: entry_price(counts.get(r, {}), q, table, 0 if r in own else 1)
        for r, q, table in game.plan(player)
    }


def best_response(game: Game, state: State, player: int) -> frozenset[str]:
    """The placed player's cheapest strategy against the others' fixed ones.

    This is the one cheapest-strategy test of all three solvers:
    ``greedy_min_base`` over her entry weights, exact greedy on matroid
    spaces, enumeration otherwise, ties toward the smallest sorted id list.
    A player already at an optimum keeps her strategy.
    """
    current = state.strategy(player)  # raises PLAYER_NOT_PLACED if absent
    weights = entry_weights(game, state, player)
    best = greedy_min_base(game.spaces[player], weights)
    return best if base_weight(best, weights) < base_weight(current, weights) else current


def has_better_response(game: Game, state: State, player: int) -> bool:
    """True when some strategy strictly beats the player's current one."""
    return best_response(game, state, player) != state.strategy(player)


def is_pure_nash(game: Game, state: State) -> bool:
    """No player has a better response.  Requires a full profile.

    Equilibria with infinite costs are legal: a player at infinite cost with
    no strictly cheaper alternative has no better response.
    """
    validate_state(game, state, full=True)
    return not any(has_better_response(game, state, p) for p in game.players())

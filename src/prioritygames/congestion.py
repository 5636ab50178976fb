"""Congestion counting and cost evaluation over full or partial assignments.

A :class:`State` maps a subset of players to strategies; a profile is a
state covering everyone.  Every function here returns what a pure function
of its arguments would; :func:`tally` only remembers the last state it
counted, with its count table and entry weights.  Costs of players outside a
state are an error, never zero (the insertion machinery relies on that
distinction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .costs import ExtCost, sum_costs
from .core import Game
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
        object.__setattr__(
            self, "_key", tuple(sorted((p, tuple(sorted(s))) for p, s in strats.items()))
        )

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

    def with_player(self, player: int, strategy: Iterable[str] | str) -> "State":
        d = dict(self._strats)
        d[player] = frozenset([strategy]) if isinstance(strategy, str) else frozenset(strategy)
        return State(d)

    def without_player(self, player: int) -> "State":
        d = dict(self._strats)
        d.pop(player, None)
        return State(d)

    def is_full(self, game: Game) -> bool:
        return set(self._strats) == set(game.players())

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}->{'+'.join(sorted(s))}" for p, s in self.items())
        return f"State({inner})"


Profile = State  # a profile is simply a state covering all players


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
    and the :func:`entry_weights` priced on it.  A query on that same state
    object reads the slot; any other state, even an equal one, is counted
    afresh and replaces it, after the count succeeds.  States are immutable,
    so a kept table is what a fresh count would give.  Every cost, weight,
    potential and tolerance query reads its counts here, so a solver that
    moves from state to state counts each state once.  The slot is shared:
    read it, never change it.
    """
    kept = game._tally
    if kept is not None and kept[0] is state:
        return kept[1]
    table = level_counts(game, state)
    object.__setattr__(game, "_tally", (state, table, {}))
    return table


def count_below(row: Mapping[int, int], level: int) -> int:
    """Players in a level-count row with strictly smaller level."""
    return sum(c for q, c in row.items() if q < level)


def player_cost(game: Game, state: State, player: int) -> ExtCost:
    """Total delay over the player's strategy; saturates at infinity.

    The counts come from the state's :func:`tally` table.
    """
    strategy = state.strategy(player)  # raises PLAYER_NOT_PLACED if absent
    counts = tally(game, state)
    parts = []
    for r in strategy:
        q = game.priority(r, player)
        row = counts[r]
        parts.append(game.delay(player, r, count_below(row, q), row[q]))
    return sum_costs(parts)


def entry_weights(game: Game, state: State, player: int) -> dict[str, ExtCost]:
    """What each resource would cost the player, opponents held fixed.

    The weight at r is exactly the delay she would face with r in her
    strategy, read from the state's :func:`tally` table: where she already
    uses r her own membership is counted once, elsewhere she joins r's
    count at her level.  Summing weights over any candidate strategy
    reproduces its exact cost, which is what makes greedy best responses
    exact for matroid spaces.  Weights are priced once per state object:
    once every probe succeeds they are kept in its :func:`tally` slot, and
    a second query returns the same dict.  Read it, never change it.
    """
    counts = tally(game, state)
    priced = game._tally[2]  # the slot tally just kept for this state
    if (weights := priced.get(player)) is None:
        own = state._strats.get(player, frozenset())
        weights = {}
        for r in sorted(game.ground_of(player)):
            q = game.priority(r, player)
            row = counts.get(r, {})
            same = row.get(q, 0) + (0 if r in own else 1)
            weights[r] = game.delay(player, r, count_below(row, q), same)
        priced[player] = weights
    return weights


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


def is_better_response(
    game: Game, state: State, player: int, new_strategy: Iterable[str] | str
) -> bool:
    """Strictly cheaper?  Equal-cost moves are not better responses."""
    new = frozenset([new_strategy]) if isinstance(new_strategy, str) else frozenset(new_strategy)
    if not game.spaces[player].is_base(new):
        raise ValidationFailed(
            "strategy outside the player's space",
            [Violation("BAD_STRATEGY", f"player {player}", f"{sorted(new)}")],
        )
    current = state.strategy(player)
    weights = entry_weights(game, state, player)
    return base_weight(new, weights) < base_weight(current, weights)


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

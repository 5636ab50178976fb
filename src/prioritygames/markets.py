"""Generalized correlated two-sided markets with ties, and model reductions.

A market couples players and resources through a rational cost c[i, e] that
drives both sides' preferences; the delay a resource imposes is a trivariate
function d(c, x, y) of the player's own cost level, the number of co-users
with strictly smaller cost, and the number with equal cost (including
herself).  Trivariate delays are tabulated over dense cost-level indices per
resource (raw costs are kept for the monotone-in-c validation).

This module also houses the two classical source models (univariate
congestion games with optional acceptance priorities, and affine
priority-based games) together with the four cost-preserving reductions
between all models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .congestion import State
from .core import (
    AffineDelay,
    ClassicDelay,
    Game,
    PerPlayerDelay,
    PriorityFunction,
    TableDelay,
    build_game,
    domain_points,
    domain_size,
    missing_entries,
    priority_coverage_violations,
    required_table_bound,
    structural_violations,
    validate_delay_properties,
)
from .costs import INFINITY, ExtCost, sum_costs
from .errors import (
    NonMonotoneDelayError,
    OutOfBoundError,
    PlayerSpecificInputError,
    ValidationFailed,
    Violation,
)
from .matroids import StrategySpace, base_weight, greedy_min_base


@dataclass(frozen=True, eq=True)
class TriTable:
    """Trivariate delay table over (cost-level index, x, y).

    Level indices run 1..levels and follow the ascending order of the
    distinct raw costs at the resource; x >= 0, y >= 1, x + y <= bound.
    """

    levels: int
    bound: int
    entries: Mapping[tuple[int, int, int], ExtCost]

    def value(self, level: int, x: int, y: int) -> ExtCost:
        try:
            return self.entries[(level, x, y)]
        except KeyError:
            raise OutOfBoundError(
                f"trivariate table has no entry at (level={level}, x={x}, y={y})"
            ) from None

    def level_slice(self, level: int) -> TableDelay:
        """The fixed-cost bivariate slice, as an ordinary delay table."""
        entries = {
            (x, y): v for (l, x, y), v in self.entries.items() if l == level
        }
        return TableDelay(entries=entries, bound=self.bound)


def tritable_from_function(fn, levels: int, bound: int) -> TriTable:
    """Tabulate ``fn(level, x, y)`` over the full domain."""
    entries = {
        (l, x, y): ExtCost.of(fn(l, x, y))
        for l in range(1, levels + 1)
        for x, y in domain_points(bound)
    }
    return TriTable(levels=levels, bound=bound, entries=entries)


@dataclass(frozen=True)
class MarketGame:
    """An immutable, validated market.  Build via :func:`build_market`."""

    n_players: int
    resources: tuple[str, ...]
    spaces: Mapping[int, StrategySpace]
    costs: Mapping[tuple[int, str], Fraction]
    delays: Mapping[str, TriTable]
    singleton: bool  # every strategy space is singleton, fixed by build_market

    def players(self) -> range:
        return range(1, self.n_players + 1)

    def ground_of(self, player: int) -> frozenset[str]:
        return self.spaces[player].ground()

    def reachable_players(self, resource: str) -> list[int]:
        return [i for i in self.players() if resource in self.spaces[i].ground()]

    def distinct_costs(self, resource: str) -> tuple[Fraction, ...]:
        vals = {self.costs[(i, resource)] for i in self.reachable_players(resource)}
        return tuple(sorted(vals))

    def cost_rank(self, resource: str, c: Fraction) -> int:
        """Dense rank (1-based) of a raw cost among the resource's values."""
        ladder = self.distinct_costs(resource)
        try:
            return ladder.index(c) + 1
        except ValueError:
            raise KeyError(f"cost {c} is not attained at resource {resource!r}") from None

    def player_level(self, resource: str, player: int) -> int:
        return self.cost_rank(resource, self.costs[(player, resource)])


def build_market(
    *,
    n_players: int,
    resources: Iterable[str],
    spaces: Mapping[int, StrategySpace],
    costs: Mapping[tuple[int, str], Fraction],
    delays: Mapping[str, TriTable],
) -> MarketGame:
    """Validate and freeze a market; raises ValidationFailed with diagnostics.

    Beyond the structural checks shared with priority games
    (:func:`~prioritygames.core.structural_violations`), every
    trivariate table must cover all its cost levels up to the required
    bound, hold no entry outside those levels and that bound, and satisfy
    the four market axioms exactly: nondecreasing in the cost level,
    nondecreasing in x and in y, and d(c, x, y) <= d(c, x+y-1, 1).
    """
    resources = tuple(sorted(resources))
    violations = structural_violations(n_players, resources, spaces)
    if violations:
        raise ValidationFailed("invalid market description", violations)

    for i, sp in sorted(spaces.items()):
        for rid in sorted(sp.ground()):
            c = costs.get((i, rid))
            if c is None:
                violations.append(
                    Violation("MISSING_COST", f"player {i}, resource {rid}", "no cost entry")
                )
            elif c < 0:
                violations.append(
                    Violation("NEGATIVE_COST", f"player {i}, resource {rid}", f"cost {c}")
                )
    if violations:
        raise ValidationFailed("invalid market description", violations)

    singleton = all(sp.is_singleton_space() for sp in spaces.values())
    bound = required_table_bound(n_players, singleton=singleton)
    market = MarketGame(
        n_players=n_players,
        resources=resources,
        spaces=dict(spaces),
        costs=dict(costs),
        delays=dict(delays),
        singleton=singleton,
    )

    for rid in resources:
        tri = delays.get(rid)
        if tri is None:
            violations.append(Violation("MISSING_DELAY", f"resource {rid}", "no trivariate table"))
            continue
        want_levels = len(market.distinct_costs(rid))
        if tri.levels != want_levels:
            violations.append(
                Violation(
                    "BAD_LEVELS",
                    f"resource {rid}",
                    f"table has {tri.levels} cost levels, resource attains {want_levels}",
                )
            )
            continue
        if tri.levels and tri.bound < bound:
            violations.append(
                Violation(
                    "BOUND_TOO_SMALL",
                    f"resource {rid}",
                    f"table bound {tri.bound} < required {bound}",
                )
            )
            continue
        stray = [
            (l, x, y)
            for l, x, y in sorted(tri.entries)
            if not 1 <= l <= tri.levels or x < 0 or y < 1 or x + y > tri.bound
        ]
        domain = ((l, x, y) for l in range(1, tri.levels + 1) for x, y in domain_points(tri.bound))
        missing = tri.levels * domain_size(tri.bound) - (len(tri.entries) - len(stray))
        incomplete = [
            Violation(v.code, f"resource {rid}: {v.where}", v.message)
            for v in missing_entries(
                domain, tri.entries, missing, tri.bound, "(level={}, x={}, y={})".format
            )
        ] + [
            Violation(
                "STRAY_ENTRY",
                f"resource {rid}: (level={l}, x={x}, y={y})",
                "entry outside declared levels or bound",
            )
            for l, x, y in stray
        ]
        if incomplete:
            violations.extend(incomplete)
            continue
        for l in range(1, tri.levels + 1):
            for v in validate_delay_properties(tri.level_slice(l), tri.bound):
                violations.append(
                    Violation(v.code, f"resource {rid}, level {l}: {v.where}", v.message)
                )
        for l in range(1, tri.levels):
            for x, y in domain_points(tri.bound):
                lo, hi = tri.value(l, x, y), tri.value(l + 1, x, y)
                if not lo <= hi:
                    violations.append(
                        Violation(
                            "NOT_MONOTONE_C",
                            f"resource {rid}: (level={l}->{l + 1}, x={x}, y={y})",
                            f"{lo} > {hi}",
                        )
                    )

    if violations:
        raise ValidationFailed("invalid market description", violations)
    return market


# ---------------------------------------------------------------------------
# Market cost evaluation (counts run over cost levels, not priorities)


def _market_counts(market: MarketGame, state: State, resource: str, c: Fraction) -> tuple[int, int]:
    below = same = 0
    for p, s in state.items():
        if resource in s:
            cp = market.costs[(p, resource)]
            if cp < c:
                below += 1
            elif cp == c:
                same += 1
    return below, same


def market_player_cost(market: MarketGame, state: State, player: int) -> ExtCost:
    """Summed trivariate delay over the player's strategy."""
    strategy = state.strategy(player)
    parts = []
    for r in strategy:
        c = market.costs[(player, r)]
        below, same = _market_counts(market, state, r, c)
        parts.append(market.delays[r].value(market.cost_rank(r, c), below, same))
    return sum_costs(parts)


def market_entry_weights(market: MarketGame, state: State, player: int) -> dict[str, ExtCost]:
    """Per-resource post-deviation delays, the player's membership removed."""
    others = state.without_player(player) if state.covers(player) else state
    weights: dict[str, ExtCost] = {}
    for r in sorted(market.ground_of(player)):
        c = market.costs[(player, r)]
        below, same = _market_counts(market, others, r, c)
        weights[r] = market.delays[r].value(market.cost_rank(r, c), below, same + 1)
    return weights


def market_has_better_response(market: MarketGame, state: State, player: int) -> bool:
    current = market_player_cost(market, state, player)
    weights = market_entry_weights(market, state, player)
    return base_weight(greedy_min_base(market.spaces[player], weights), weights) < current


def market_is_pure_nash(market: MarketGame, state: State) -> bool:
    return not any(market_has_better_response(market, state, p) for p in market.players())


# ---------------------------------------------------------------------------
# Classical source models


@dataclass(frozen=True)
class ClassicGame:
    """A univariate congestion game with optional acceptance priorities.

    Semantics: on each chosen resource, only the players whose priority
    equals the minimum present priority are accepted and pay d(k) where k is
    the count of accepted players; everyone else pays +infinity.  With
    constant priorities this is the classical congestion game.
    """

    n_players: int
    resources: tuple[str, ...]
    spaces: Mapping[int, StrategySpace]
    priorities: PriorityFunction
    values: Mapping[str, tuple[ExtCost, ...]]

    def players(self) -> range:
        return range(1, self.n_players + 1)


def build_classic_game(
    *,
    n_players: int,
    resources: Iterable[str],
    spaces: Mapping[int, StrategySpace],
    priorities: PriorityFunction,
    values: Mapping[str, Iterable[ExtCost]],
) -> ClassicGame:
    """Validate and freeze a classical game; raises ValidationFailed.

    The structural checks are :func:`build_game`'s; then every reachable
    resource needs a priority and at least n delay values.
    """
    resources = tuple(sorted(resources))
    violations = structural_violations(n_players, resources, spaces)
    if violations:
        raise ValidationFailed("invalid classical game description", violations)
    violations = priority_coverage_violations(spaces, priorities)
    vals = {r: tuple(ExtCost.of(v) for v in vs) for r, vs in values.items()}
    for rid in resources:
        if rid not in vals:
            violations.append(Violation("MISSING_DELAY", f"resource {rid}", "no delay values"))
        elif len(vals[rid]) < n_players:
            violations.append(
                Violation(
                    "BOUND_TOO_SMALL",
                    f"resource {rid}",
                    f"{len(vals[rid])} delay values, need {n_players}",
                )
            )
    if violations:
        raise ValidationFailed("invalid classical game description", violations)
    return ClassicGame(
        n_players=n_players,
        resources=resources,
        spaces=dict(spaces),
        priorities=priorities,
        values=vals,
    )


def classic_player_cost(cg: ClassicGame, state: State, player: int) -> ExtCost:
    """Direct acceptance semantics, independent of the bivariate encoding."""
    strategy = state.strategy(player)
    parts = []
    for r in strategy:
        users = [p for p, s in state.items() if r in s]
        p_star = min(cg.priorities.of(r, p) for p in users)
        if cg.priorities.of(r, player) > p_star:
            parts.append(INFINITY)
        else:
            accepted = sum(1 for p in users if cg.priorities.of(r, p) == p_star)
            parts.append(cg.values[r][accepted - 1])
    return sum_costs(parts)


@dataclass(frozen=True)
class AffineGame:
    """Affine delays alpha*(x + (y+1)/2) + beta under one shared priority map."""

    n_players: int
    resources: tuple[str, ...]
    spaces: Mapping[int, StrategySpace]
    level_map: Mapping[int, int]
    params: Mapping[str, tuple[Fraction, Fraction]]

    def players(self) -> range:
        return range(1, self.n_players + 1)


def build_affine_game(
    *,
    n_players: int,
    resources: Iterable[str],
    spaces: Mapping[int, StrategySpace],
    level_map: Mapping[int, int],
    params: Mapping[str, tuple[Fraction, Fraction]],
) -> AffineGame:
    """Validate and freeze an affine game; raises ValidationFailed.

    The structural checks are :func:`build_game`'s; then every player needs
    a level >= 1 and every resource nonnegative (alpha, beta).
    """
    resources = tuple(sorted(resources))
    violations = structural_violations(n_players, resources, spaces)
    if violations:
        raise ValidationFailed("invalid affine game description", violations)
    for i in range(1, n_players + 1):
        if level_map.get(i, 0) < 1:
            violations.append(Violation("BAD_PRIORITY", f"player {i}", "missing or < 1"))
    for rid in resources:
        ab = params.get(rid)
        if ab is None:
            violations.append(Violation("MISSING_DELAY", f"resource {rid}", "no (alpha, beta)"))
        elif ab[0] < 0 or ab[1] < 0:
            violations.append(Violation("BAD_AFFINE", f"resource {rid}", f"{ab}"))
    if violations:
        raise ValidationFailed("invalid affine game description", violations)
    return AffineGame(
        n_players=n_players,
        resources=resources,
        spaces=dict(spaces),
        level_map=dict(level_map),
        params={r: (Fraction(a), Fraction(b)) for r, (a, b) in params.items()},
    )


def affine_player_cost(ag: AffineGame, state: State, player: int) -> ExtCost:
    """Direct evaluation of the affine formula with exact rationals."""
    strategy = state.strategy(player)
    mine = ag.level_map[player]
    total = Fraction(0)
    for r in strategy:
        below = same = 0
        for p, s in state.items():
            if r in s:
                q = ag.level_map[p]
                if q < mine:
                    below += 1
                elif q == mine:
                    same += 1
        alpha, beta = ag.params[r]
        total += alpha * (below + Fraction(same + 1, 2)) + beta
    return ExtCost(total)


# ---------------------------------------------------------------------------
# Reductions


def reduce_classic_to_priority(cg: ClassicGame) -> Game:
    """Wrap univariate delays: d'(x, y) = +inf for x >= 1, d(y) for x = 0.

    Cost-preserving on every profile.  Requires nondecreasing univariate
    delays, otherwise the wrapped spec would break the delay axioms.
    """
    for rid in cg.resources:
        spec = ClassicDelay(values=cg.values[rid])
        if not spec.univariate_nondecreasing():
            raise NonMonotoneDelayError(
                f"univariate delay at resource {rid!r} is not nondecreasing"
            )
    return build_game(
        n_players=cg.n_players,
        resources=cg.resources,
        spaces=cg.spaces,
        priorities=cg.priorities,
        delays={rid: ClassicDelay(values=cg.values[rid]) for rid in cg.resources},
    )


def reduce_affine_to_priority(ag: AffineGame) -> Game:
    """Realize the affine model as bivariate delay specs, cost-preserving."""
    priorities = PriorityFunction.uniform(ag.resources, ag.level_map)
    delays = {
        rid: AffineDelay(alpha=a, beta=b) for rid, (a, b) in ag.params.items()
    }
    return build_game(
        n_players=ag.n_players,
        resources=ag.resources,
        spaces=ag.spaces,
        priorities=priorities,
        delays=delays,
    )


def reduce_priority_to_market(game: Game) -> MarketGame:
    """Embed a (non-player-specific) priority game as a market.

    Costs become the raw priority values, and the trivariate delay ignores
    its cost argument: d'(c, x, y) = d(x, y).  Counts over cost levels then
    coincide with counts over priority levels, so all profile costs agree.
    """
    if game.player_specific:
        raise PlayerSpecificInputError(
            "market embedding is defined for non-player-specific games"
        )
    bound = game.required_bound()

    def tabulate(spec, x: int, y: int) -> ExtCost:
        # classic wraps define x = 0 values only up to their list length;
        # points beyond are never cost-relevant, complete them monotonically
        if isinstance(spec, ClassicDelay) and x == 0 and y > len(spec.values):
            return spec.values[-1]
        return spec.value(x, y)

    costs: dict[tuple[int, str], Fraction] = {}
    delays: dict[str, TriTable] = {}
    for rid in game.resources:
        reachable = [i for i in game.players() if rid in game.ground_of(i)]
        for i in reachable:
            costs[(i, rid)] = Fraction(game.priority(rid, i))
        levels = len({game.priority(rid, i) for i in reachable})
        spec = game.delays[rid]
        entries = {
            (l, x, y): tabulate(spec, x, y)
            for l in range(1, levels + 1)
            for x, y in domain_points(bound)
        }
        delays[rid] = TriTable(levels=levels, bound=bound, entries=entries)
    return build_market(
        n_players=game.n_players,
        resources=game.resources,
        spaces=game.spaces,
        costs=costs,
        delays=delays,
    )


def reduce_market_to_playerspecific(market: MarketGame) -> Game:
    """Realize a market as a player-specific priority game.

    Priorities are the dense ranks of the raw costs per resource (ties map
    to equal priorities), and each player's bivariate delay is her cost
    level's slice of the trivariate table; a resource nobody can reach gets
    an all-zero table.  Cost-identical on every profile.
    """
    bound = required_table_bound(market.n_players, singleton=market.singleton)
    maps: dict[str, dict[int, int]] = {}
    delays: dict[str, TableDelay | PerPlayerDelay] = {}
    for rid in market.resources:
        reachable = market.reachable_players(rid)
        maps[rid] = {i: market.player_level(rid, i) for i in reachable}
        tri = market.delays[rid]
        if reachable:
            delays[rid] = PerPlayerDelay(
                specs={i: tri.level_slice(maps[rid][i]) for i in reachable}
            )
        else:
            delays[rid] = TableDelay(
                entries={(x, y): ExtCost.of(0) for x, y in domain_points(bound)},
                bound=bound,
            )
    return build_game(
        n_players=market.n_players,
        resources=market.resources,
        spaces=market.spaces,
        priorities=PriorityFunction(maps),
        delays=delays,
    )

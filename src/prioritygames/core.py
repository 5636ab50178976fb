"""Core model: priority functions, bivariate delay specifications, games.

A game couples players (ids 1..n), resources (string ids), per-player
strategy spaces, per-resource priority functions (smaller value = more
prioritized), and per-resource bivariate delays d(x, y) where x counts
strictly more prioritized co-users and y counts equal-priority co-users
including the player herself.

Every delay specification accepted by :func:`build_game` satisfies three
axioms on its whole bounded domain, checked exactly:

* nondecreasing in x,
* nondecreasing in y,
* d(x, y) <= d(x + y - 1, 1)  (trading equal-priority co-users for more
  prioritized ones never lowers the delay).

Two spec kinds meet them by their form.  An affine delay
alpha * (x + (y + 1)/2) + beta with alpha >= 0 rises by alpha in x and by
alpha/2 in y, and d(x + y - 1, 1) - d(x, y) = alpha * (y - 1)/2 >= 0.  A
classic wrap is +infinity wherever x >= 1, so every comparison but the one
along its x = 0 column holds, and that column is its value list: the wrap
obeys the axioms exactly when the list is nondecreasing.  Only tables are
checked point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .costs import INFINITY, ExtCost
from .errors import (
    OutOfBoundError,
    ValidationFailed,
    Violation,
)
from .matroids import StrategySpace


class PriorityFunction:
    """Per-resource priorities over players; values are integers >= 1.

    ``consistent`` is true when every resource carries the same map.  Values
    need not be contiguous; nothing here assumes 1..k numbering.
    """

    def __init__(self, maps: Mapping[str, Mapping[int, int]], consistent: bool | None = None):
        self._maps = {r: dict(m) for r, m in maps.items()}
        for r, m in self._maps.items():
            for i, q in m.items():
                if q < 1:
                    raise ValidationFailed(
                        "priorities must be >= 1",
                        [Violation("BAD_PRIORITY", f"resource {r}, player {i}", f"value {q}")],
                    )
        if consistent is None:
            vals = list(self._maps.values())
            consistent = bool(vals) and all(m == vals[0] for m in vals)
        self.consistent = consistent

    @classmethod
    def uniform(cls, resources: Iterable[str], mapping: Mapping[int, int]) -> "PriorityFunction":
        """One shared map for every resource (the consistent case)."""
        mapping = dict(mapping)
        return cls({r: mapping for r in resources}, consistent=True)

    @classmethod
    def constant(cls, resources: Iterable[str], players: Iterable[int]) -> "PriorityFunction":
        """Everyone at priority 1: a plain congestion game."""
        return cls.uniform(resources, {i: 1 for i in players})

    def of(self, resource: str, player: int) -> int:
        try:
            return self._maps[resource][player]
        except KeyError:
            raise KeyError(f"no priority for player {player} at resource {resource!r}") from None

    def defined(self, resource: str, player: int) -> bool:
        return player in self._maps.get(resource, {})

    def max_level(self, resource: str) -> int:
        m = self._maps.get(resource, {})
        return max(m.values()) if m else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, PriorityFunction) and self._maps == other._maps

    def __repr__(self) -> str:
        tag = "consistent" if self.consistent else "per-resource"
        return f"PriorityFunction({tag}, {len(self._maps)} resources)"


# ---------------------------------------------------------------------------
# Delay specifications


class DelaySpec:
    """A bivariate delay d(x, y), x >= 0, y >= 1."""

    kind = "abstract"

    def value(self, x: int, y: int) -> ExtCost:
        raise NotImplementedError


@dataclass(frozen=True, eq=True)
class TableDelay(DelaySpec):
    """Explicit table over all (x, y) with x >= 0, y >= 1, x + y <= bound."""

    entries: Mapping[tuple[int, int], ExtCost]
    bound: int

    kind = "table"

    def value(self, x: int, y: int) -> ExtCost:
        try:
            return self.entries[(x, y)]
        except KeyError:
            raise OutOfBoundError(
                f"table delay has no entry at (x={x}, y={y}), bound {self.bound}"
            ) from None

    def completeness_violations(self) -> list[Violation]:
        out = []
        for x, y in domain_points(self.bound):
            if (x, y) not in self.entries:
                out.append(
                    Violation("MISSING_ENTRY", f"(x={x}, y={y})", "no table entry within bound")
                )
        for (x, y) in self.entries:
            if x < 0 or y < 1 or x + y > self.bound:
                out.append(
                    Violation("STRAY_ENTRY", f"(x={x}, y={y})", "entry outside declared bound")
                )
        return out


@dataclass(frozen=True, eq=True)
class AffineDelay(DelaySpec):
    """d(x, y) = alpha * (x + (y + 1)/2) + beta, exact rationals.

    The (y + 1)/2 term is the expected count of more-or-equally prioritized
    users when ties among the y equal-priority users break uniformly.
    """

    alpha: Fraction
    beta: Fraction

    kind = "affine"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValidationFailed(
                "affine delay needs alpha, beta >= 0",
                [Violation("BAD_AFFINE", "affine", f"alpha={self.alpha}, beta={self.beta}")],
            )

    def value(self, x: int, y: int) -> ExtCost:
        """alpha * (2x + y + 1)/2 + beta over one common denominator.

        With alpha = a/c and beta = b/d in lowest terms the value is
        ((2x + y + 1) * a * d + 2 * b * c) / (2 * c * d): integer products
        and a single normalising gcd instead of four Fraction operations.
        """
        if x < 0 or y < 1:
            raise OutOfBoundError(f"delay arguments out of domain: (x={x}, y={y})")
        alpha, beta = self.alpha, self.beta
        return ExtCost(
            Fraction(
                (2 * x + y + 1) * alpha.numerator * beta.denominator
                + 2 * beta.numerator * alpha.denominator,
                2 * alpha.denominator * beta.denominator,
            )
        )


@dataclass(frozen=True, eq=True)
class ClassicDelay(DelaySpec):
    """A classical univariate delay wrapped into the bivariate model.

    d(x, y) is +infinity whenever any strictly more prioritized player is
    present (x >= 1) and the stored univariate value d(y) otherwise.
    ``values[k]`` is d(k + 1).
    """

    values: tuple[ExtCost, ...]

    kind = "classic"

    def value(self, x: int, y: int) -> ExtCost:
        if x < 0 or y < 1:
            raise OutOfBoundError(f"delay arguments out of domain: (x={x}, y={y})")
        if x >= 1:
            return INFINITY
        if y > len(self.values):
            raise OutOfBoundError(
                f"classic delay has {len(self.values)} values, asked for y={y}"
            )
        return self.values[y - 1]

    def univariate_nondecreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.values, self.values[1:]))


@dataclass(frozen=True, eq=True)
class PerPlayerDelay(DelaySpec):
    """Player-specific delays: one plain spec per player id."""

    specs: Mapping[int, DelaySpec]

    kind = "per_player"

    def for_player(self, player: int) -> DelaySpec:
        try:
            return self.specs[player]
        except KeyError:
            raise KeyError(f"no player-specific delay for player {player}") from None

    def value(self, x: int, y: int) -> ExtCost:
        raise TypeError("player-specific delay needs a player; use evaluate_delay(..., player=i)")


def evaluate_delay(spec: DelaySpec, x: int, y: int, player: int | None = None) -> ExtCost:
    """Evaluate a delay spec at (x, y); pure and deterministic.

    ``player`` selects the sub-spec of a player-specific delay and is
    ignored otherwise.
    """
    if x < 0 or y < 1:
        raise OutOfBoundError(f"delay arguments out of domain: (x={x}, y={y})")
    if isinstance(spec, PerPlayerDelay):
        if player is None:
            raise TypeError("player required for player-specific delay")
        spec = spec.for_player(player)
    return spec.value(x, y)


def domain_points(bound: int) -> Iterable[tuple[int, int]]:
    """All (x, y) with x >= 0, y >= 1, x + y <= bound."""
    for x in range(0, bound):
        for y in range(1, bound - x + 1):
            yield (x, y)


def validate_delay_properties(spec: DelaySpec, bound: int) -> list[Violation]:
    """Check the three delay axioms on the whole domain up to ``bound``.

    Returns violations (empty list = all hold).  Comparison is exact; there
    is no tolerance.  An affine spec holds all three by its form: with
    alpha >= 0 (enforced on construction) it is nondecreasing in x and y,
    and d(x + y - 1, 1) - d(x, y) = alpha * (y - 1)/2 >= 0.  A classic wrap
    is +infinity for x >= 1, so only its x = 0 column can fail, and only by
    decreasing: adjacent values among the first ``bound`` are compared.
    Anything else, tables in practice, is walked point by point:
    monotonicity on adjacent points, which is equivalent by transitivity,
    and the replacement axiom at every in-bound point.  A table whose own
    bound is below ``bound``, or with holes inside it, is reported by its
    missing points alone.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if isinstance(spec, PerPlayerDelay):
        out = []
        for i, sub in sorted(spec.specs.items()):
            for v in validate_delay_properties(sub, bound):
                out.append(Violation(v.code, f"player {i}: {v.where}", v.message))
        return out
    if isinstance(spec, AffineDelay):
        return []
    if isinstance(spec, ClassicDelay):
        head = spec.values[:bound]
        return [
            Violation("NOT_MONOTONE_Y", f"(x=0, y={y})", f"d(0,{y})={a} > d(0,{y + 1})={b}")
            for y, (a, b) in enumerate(zip(head, head[1:]), start=1)
            if not a <= b
        ]

    out: list[Violation] = []
    if isinstance(spec, TableDelay):
        out = [
            Violation(
                "MISSING_ENTRY",
                f"(x={x}, y={y})",
                "domain point not supported"
                if x + y > spec.bound
                else "no table entry within bound",
            )
            for x, y in domain_points(bound)
            if x + y > spec.bound or (x, y) not in spec.entries
        ]
        if out:
            return out

    for x, y in domain_points(bound):
        here = spec.value(x, y)
        if x + y < bound:
            right = spec.value(x + 1, y)
            if not here <= right:
                out.append(
                    Violation(
                        "NOT_MONOTONE_X",
                        f"(x={x}, y={y})",
                        f"d({x},{y})={here} > d({x + 1},{y})={right}",
                    )
                )
            up = spec.value(x, y + 1)
            if not here <= up:
                out.append(
                    Violation(
                        "NOT_MONOTONE_Y",
                        f"(x={x}, y={y})",
                        f"d({x},{y})={here} > d({x},{y + 1})={up}",
                    )
                )
        swapped = spec.value(x + y - 1, 1)
        if not here <= swapped:
            out.append(
                Violation(
                    "REPLACEMENT_FAILED",
                    f"(x={x}, y={y})",
                    f"d({x},{y})={here} > d({x + y - 1},1)={swapped}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Games


@dataclass(frozen=True)
class Game:
    """An immutable, validated game instance.  Build via :func:`build_game`."""

    n_players: int
    resources: tuple[str, ...]
    spaces: Mapping[int, StrategySpace]
    priorities: PriorityFunction
    delays: Mapping[str, DelaySpec]
    player_specific: bool
    # (resource, x, y[, player]) -> the ExtCost evaluate_delay returned there
    _points: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (state, level-count table, player -> entry weights) of the last state
    # congestion.tally counted
    _tally: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def players(self) -> range:
        return range(1, self.n_players + 1)

    def priority(self, resource: str, player: int) -> int:
        return self.priorities.of(resource, player)

    def delay(self, player: int | None, resource: str, x: int, y: int) -> ExtCost:
        """d_e(x, y) for the player at ``resource``, built once per game.

        Every cost, potential and tolerance on the solver, potential and
        certify paths reads its delays here.  The first call at a point
        stores what :func:`evaluate_delay` returns; later calls return that
        same ``ExtCost`` object.  That is exact, not an approximation: specs
        are frozen and ``evaluate_delay`` is a pure function of
        (spec, x, y, player), so a stored value is the value a fresh
        evaluation would give.  The player is part of the key only on
        resources whose spec is a :class:`PerPlayerDelay`, and is ignored
        (may be None) elsewhere.  Failed evaluations are not stored, so an
        out-of-domain or out-of-table probe raises ``OutOfBoundError`` on
        every call.
        """
        spec = self.delays[resource]
        key = (resource, x, y, player) if isinstance(spec, PerPlayerDelay) else (resource, x, y)
        try:
            return self._points[key]
        except KeyError:
            value = self._points[key] = evaluate_delay(spec, x, y, player=player)
            return value

    def ground_of(self, player: int) -> frozenset[str]:
        return self.spaces[player].ground()

    def is_singleton_game(self) -> bool:
        return all(sp.is_singleton_space() for sp in self.spaces.values())

    def required_bound(self) -> int:
        return required_table_bound(self.n_players, singleton=self.is_singleton_game())


def required_table_bound(n_players: int, *, singleton: bool) -> int:
    """Smallest table bound every delay spec must support.

    Profile evaluations never need x + y > n.  Singleton games additionally
    probe d(x, y) for y up to the player count while x is the fixed count of
    more prioritized co-users (the insertion potential's tolerance scan), so
    their tables must reach 2n - 1.
    """
    return max(2, 2 * n_players - 1 if singleton else n_players)


def structural_violations(
    n_players: int, resources: tuple[str, ...], spaces: Mapping[int, StrategySpace]
) -> list[Violation]:
    """The structural checks every game and market builder runs first.

    Player ids are exactly 1..n; resource ids are distinct, nonempty,
    '+'-free and not 'DISCARDED'; every space is nonempty and uses listed
    resources only.  ``resources`` is the builder's sorted id tuple.
    """
    violations: list[Violation] = []

    if n_players < 1:
        violations.append(Violation("BAD_PLAYERS", "game", f"n_players={n_players}"))
    if len(set(resources)) != len(resources):
        violations.append(Violation("DUPLICATE_RESOURCE", "game", "resource ids repeat"))
    for rid in resources:
        if "+" in rid or rid in ("", "DISCARDED"):
            violations.append(
                Violation("BAD_RESOURCE_ID", rid, "resource ids must be nonempty, not 'DISCARDED', and '+'-free")
            )

    expected_players = set(range(1, n_players + 1))
    if set(spaces) != expected_players:
        violations.append(
            Violation(
                "BAD_SPACE_KEYS",
                "strategy spaces",
                f"expected players {sorted(expected_players)}, got {sorted(spaces)}",
            )
        )
    rset = set(resources)
    for i, sp in sorted(spaces.items()):
        if not sp.all_bases():
            violations.append(Violation("EMPTY_SPACE", f"player {i}", "no strategies"))
        extra = sp.ground() - rset
        if extra:
            violations.append(
                Violation("UNKNOWN_RESOURCE", f"player {i}", f"strategies use {sorted(extra)}")
            )
    return violations


def build_game(
    *,
    n_players: int,
    resources: Iterable[str],
    spaces: Mapping[int, StrategySpace],
    priorities: PriorityFunction,
    delays: Mapping[str, DelaySpec],
) -> Game:
    """Validate and freeze a game; raises ValidationFailed with diagnostics.

    Checks: player ids are exactly 1..n; every strategy uses listed
    resources; spaces are nonempty; priorities exist wherever a player can
    reach a resource; every reachable delay spec passes the three axioms up
    to the computed required bound.
    """
    resources = tuple(sorted(resources))
    violations = structural_violations(n_players, resources, spaces)
    if violations:
        raise ValidationFailed("invalid game description", violations)

    # priority coverage: every player must be ranked wherever she can appear
    for i, sp in sorted(spaces.items()):
        for rid in sorted(sp.ground()):
            if not priorities.defined(rid, i):
                violations.append(
                    Violation("MISSING_PRIORITY", f"resource {rid}", f"player {i} unranked")
                )

    singleton = all(sp.is_singleton_space() for sp in spaces.values())
    bound = required_table_bound(n_players, singleton=singleton)
    # classic wraps are infinite for x >= 1 and only define n univariate
    # values; their axioms are fully determined by points with y <= n + 1
    classic_bound = max(2, min(bound, n_players + 1))
    player_specific = False

    def check_plain_spec(spec: DelaySpec, where: str) -> list[Violation]:
        local: list[Violation] = []
        if isinstance(spec, PerPlayerDelay):
            # only reachable inside another PerPlayerDelay
            return [
                Violation(
                    "NESTED_PLAYER_DELAY",
                    where,
                    "a player-specific delay holds plain specs, not another one",
                )
            ]
        if isinstance(spec, TableDelay):
            if spec.bound < bound:
                return [
                    Violation(
                        "BOUND_TOO_SMALL", where, f"table bound {spec.bound} < required {bound}"
                    )
                ]
            local = [
                Violation(v.code, f"{where}: {v.where}", v.message)
                for v in spec.completeness_violations()
            ]
        if isinstance(spec, ClassicDelay) and len(spec.values) < n_players:
            return [
                Violation(
                    "BOUND_TOO_SMALL",
                    where,
                    f"classic delay has {len(spec.values)} values, need {n_players}",
                )
            ]
        return local

    for rid in resources:
        spec = delays.get(rid)
        if spec is None:
            violations.append(Violation("MISSING_DELAY", f"resource {rid}", "no delay spec"))
            continue
        local: list[Violation] = []
        if isinstance(spec, PerPlayerDelay):
            player_specific = True
            reachable = {i for i, sp in spaces.items() if rid in sp.ground()}
            missing = reachable - set(spec.specs)
            if missing:
                local.append(
                    Violation(
                        "MISSING_PLAYER_DELAY",
                        f"resource {rid}",
                        f"no delay for players {sorted(missing)}",
                    )
                )
            for sub_i, sub in sorted(spec.specs.items()):
                local.extend(check_plain_spec(sub, f"resource {rid}, player {sub_i}"))
        else:
            local.extend(check_plain_spec(spec, f"resource {rid}"))
        if local:
            violations.extend(local)
            continue
        subspecs = (
            [(f"resource {rid}, player {i}", s) for i, s in sorted(spec.specs.items())]
            if isinstance(spec, PerPlayerDelay)
            else [(f"resource {rid}", spec)]
        )
        for where, sub in subspecs:
            sub_bound = classic_bound if isinstance(sub, ClassicDelay) else bound
            for v in validate_delay_properties(sub, sub_bound):
                violations.append(Violation(v.code, f"{where}: {v.where}", v.message))

    if violations:
        raise ValidationFailed("invalid game description", violations)

    delays = dict(delays)
    return Game(
        n_players=n_players,
        resources=resources,
        spaces=dict(spaces),
        priorities=priorities,
        delays=delays,
        player_specific=player_specific,
    )


def table_from_function(fn, bound: int) -> TableDelay:
    """Tabulate a bivariate function over the full domain up to ``bound``.

    ``fn(x, y)`` may return anything :meth:`ExtCost.of` accepts.  Handy for
    tests and small hand-built instances.
    """
    entries = {(x, y): ExtCost.of(fn(x, y)) for x, y in domain_points(bound)}
    return TableDelay(entries=entries, bound=bound)

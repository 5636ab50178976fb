"""Potential functions with exact comparison.

Four constructions certify convergence and equilibrium existence:

* a lexicographic vector of (delay, level) pairs for singleton games with
  per-resource priorities, strictly decreasing under every better response;
* its trivariate analogue for generalized two-sided markets, where the pair's
  second slot is the per-resource dense rank of the player's cost;
* an exact scalar potential for the level-q subgame of a
  consistent-priority game (arbitrary strategy spaces), read from the whole
  state: less prioritized players never enter a level-q delay;
* the two-part insertion potential (sorted per-resource level-count rows,
  then a summed tolerance) that proves the insertion algorithm terminates.

Each potential's public function is a function of one state.  The
priority-game potentials read its counts from the state's
:func:`~prioritygames.congestion.tally` table; the market potential tallies
each resource's users by raw cost in one pass over the profile.  Along a
run, :class:`LexRun` and :class:`LevelRun` keep one part per resource, a
block of pairs or a level-q term, beside the level-count row it was read
from, and re-derive only the parts whose row a state changed, with the
same builders as :func:`lex_potential_singleton` and
:func:`level_potential`; :class:`InsertionRun` keeps the insertion
potential's tolerance records, and re-prices only the records a changed
row can change, and keeps each row's counts with their canonical token in
one sorted list, so a read re-formats and re-sorts only the rows it
changed.  All three read a state by ``at(state)``.
:func:`falls` is the one strict-drop rule of the descending runs.
Everything compares exactly; no tolerances anywhere.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import itemgetter, le
from typing import Mapping, NamedTuple

from .congestion import (
    State,
    congestion_view,  # noqa: F401  (bench/test_bench.py reads it from this module)
    count_below,
    entry_price,
    reach_index,
    tally,
    validate_state,
)
from .core import Game, Points
from .costs import INFINITY, ExtCost, sum_costs
from .errors import (
    InconsistentPrioritiesError,
    InvariantViolatedError,
    LengthMismatchError,
    NotSingletonError,
    PlayerSpecificInputError,
    ShapeMismatchError,
)
from .markets import MarketGame
from .matroids import singleton_resources

LESS = -1
EQUAL = 0
GREATER = 1


Pair = tuple[ExtCost, int]


@dataclass(frozen=True)
class LexVector:
    """A sorted tuple of (cost, level) pairs; the pair order is cost-first.

    The pairs are put in order on exact integer keys (see
    :func:`_lex_vector`), which order them as the (cost, level) tuples do.
    A vector from :class:`LexRun` keeps the ``scale`` and ``width`` of its
    keys, the ``keys`` themselves when no pair is infinite, and its
    canonical ``text``, so :func:`lex_compare` of two such vectors on one
    scale and width compares ints.  Only the pairs take part in equality.
    """

    pairs: tuple[Pair, ...]
    keys: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    scale: int = field(default=0, compare=False, repr=False)
    width: int = field(default=0, compare=False, repr=False)
    text: str | None = field(default=None, compare=False, repr=False)

    def canonical(self) -> str:
        if self.text is not None:
            return self.text
        return ";".join(f"{c.to_string()}@{q}" for c, q in self.pairs)


@dataclass(frozen=True)
class ScalarPotential:
    value: ExtCost

    def canonical(self) -> str:
        return self.value.to_string()


@dataclass(frozen=True)
class InsertionPotentialValue:
    """Sorted per-resource level-count rows plus the summed tolerance.

    A value from :class:`InsertionRun` keeps its canonical ``text``, joined
    from the run's kept row tokens.  Only the rows and the sum take part in
    equality.
    """

    rows: tuple[tuple[int, ...], ...]
    tol_sum: int
    text: str | None = field(default=None, compare=False, repr=False)

    def canonical(self) -> str:
        if self.text is not None:
            return self.text
        rows = "|".join(",".join(str(c) for c in row) for row in self.rows)
        return f"phi={rows};tol={self.tol_sum}"


def _require_singleton(game) -> None:
    if not game.singleton:
        raise NotSingletonError("every strategy space must be singleton")


def _lex_vector(blocks: dict[str, list[Pair]], axioms: str) -> LexVector:
    """Check that each resource's block of pairs rises, then sort all pairs.

    Both steps compare exact integer keys, not ``ExtCost`` objects.  With L
    the least common multiple of the denominators of the vector's finite
    costs (the scale) and W one more than the largest level (the width), the
    finite pair (a/b, q) has key a * (L // b) * W + q, read off the cost's
    kept ``num`` and ``den`` ints.  The keys are exact: a/b * L is an
    integer for every finite cost, so two distinct costs scale to integers
    at least 1 apart, and W times that gap exceeds any difference of levels;
    equal costs order by level.  Infinite pairs sort after every finite one,
    by level alone.  So sorting the finite pairs on their keys, then the
    infinite ones on their levels, puts the pairs in the order that sorting
    the (cost, level) tuples gives.  The keys are plain ints: no floats, and
    every comparison runs in C.  Any common multiple of the denominators and
    any width above every level order the pairs the same way, which lets
    :class:`LexRun` keep one scale and one width across a run.

    A falling block breaks the ``axioms`` the game's builder checked.
    """
    scale = lcm(*{c.den for block in blocks.values() for c, _ in block if c.den})
    width = 1 + max((q for block in blocks.values() for _, q in block), default=0)
    finite: list[tuple[int, Pair]] = []
    infinite: list[Pair] = []
    for rid, block in blocks.items():
        keys = _block_keys(rid, block, scale, width, axioms)
        finite.extend(zip(keys, block))
        infinite.extend(block[len(keys) :])
    finite.sort(key=itemgetter(0))
    infinite.sort(key=itemgetter(1))
    return LexVector(pairs=(*map(itemgetter(1), finite), *infinite))


def _block_keys(rid: str, block: list[Pair], scale: int, width: int, axioms: str) -> list[int]:
    """The integer keys (:func:`_lex_vector`) of the finite pairs that open
    one resource's block, checked with the infinite pairs after them to rise.

    ``scale`` is a multiple of every finite cost's denominator, and
    ``width`` exceeds every level.
    """
    keys = [c.num * (scale // c.den) * width + q for c, q in block if c.den]
    cut = len(keys)
    if all(map(le, keys, keys[1:])):
        if cut == len(block):
            return keys
        levels = [q for c, q in block[cut:] if not c.den]
        if len(levels) == len(block) - cut and all(map(le, levels, levels[1:])):
            return keys
    ranks = [(0, c.num * (scale // c.den), q) if c.den else (1, 0, q) for c, q in block]
    k = next(k for k in range(1, len(block)) if ranks[k - 1] > ranks[k])
    (c1, q1), (c2, q2) = block[k - 1], block[k]
    raise InvariantViolatedError(
        f"resource {rid}: pairs {c1}@{q1} > {c2}@{q2} violate the {axioms} axioms"
    )


def _delay_block(game: Game, rid: str, row: dict[int, int]) -> list[Pair]:
    """The pairs one resource contributes, from its level-count row.

    Per present level q, ascending, and per y = 1..count(q), the pair
    (d(below(q), y), q), read from the shared delay's ``game.points(rid)``.
    """
    table = game.points(rid)
    block: list[Pair] = []
    prefix = 0
    for q, cnt in sorted(row.items()):
        for y in range(1, cnt + 1):
            block.append((table[prefix, y], q))
        prefix += cnt
    return block


def _require_shared_singleton(game: Game) -> None:
    _require_singleton(game)
    if game.player_specific:
        raise PlayerSpecificInputError(
            "the lexicographic potential needs one shared delay per resource"
        )



def lex_potential_singleton(game: Game, prof: State) -> LexVector:
    """The (delay, priority) pair vector of a singleton-game profile.

    Each resource with present levels q_1 < ... < q_k contributes, per level
    q and per y = 1..count(q), the pair (d(below(q), y), q); the n pairs are
    then sorted nondecreasing.  Per-resource blocks are already nondecreasing
    by the delay axioms, which is checked during construction.  The counts
    come from the profile's :func:`tally` table.  The check and the sort
    compare exact integer keys over the vector's one shared denominator
    (:func:`_lex_vector`), not the ``ExtCost`` values.
    """
    _require_shared_singleton(game)
    validate_state(game, prof, full=True)
    counts = tally(game, prof)
    blocks = {rid: _delay_block(game, rid, counts.get(rid, {})) for rid in game.resources}
    return _lex_vector(blocks, "delay")


class _RowRun:
    """A potential of the states of one run, kept as one part per resource
    beside the level-count row the part was read from.

    :meth:`at` reads a state's :func:`tally` table and re-derives only the
    parts whose row differs from the kept one, by identity first, then by
    equality.  Keeping rows by reference is sound: a table is never changed
    once counted, and :func:`~prioritygames.congestion.step_state` copies a
    row before it changes it and shares every other row.  So a step, which
    moves one player, re-derives at most two parts, and a state counted
    afresh gets the same value.  A subclass's ``_rederive`` keeps the new
    row and its part, or queues what the row changes, and clears ``value``;
    ``_merge`` builds the value from the kept parts.  The caller vouches
    for every state being legal (a run validates its start once and then
    steps by legal moves).
    """

    def __init__(self, game: Game):
        self.game = game
        self._rows: dict[str, dict[int, int] | None] = dict.fromkeys(game.resources)
        self.value = None

    def at(self, state: State):
        """The value of ``state``."""
        counts = tally(self.game, state)
        for rid, kept in self._rows.items():
            row = counts.get(rid)
            if row is not kept and row != kept:
                self._rederive(rid, row)
        if self.value is None:
            self.value = self._merge()
        return self.value


class LexRun(_RowRun):
    """The lexicographic potential of the states of one run, kept by blocks.

    Per resource it keeps (see :class:`_RowRun`) the entries of the block
    of pairs :func:`_delay_block` derived from its row: per pair, its
    integer key (its level, for an infinite pair), its canonical
    ``"{cost}@{level}"`` token and the pair.

    All keys share one running ``scale`` and the game's level width.  The
    scale only grows: when a re-derived block brings a denominator that
    does not divide it, the scale becomes their least common multiple and
    every block is re-keyed.  Re-derived blocks pass :func:`_block_keys`'s
    rise check.  The vector is one sort of the kept finite entries on their
    keys (the infinite ones, rare, sort apart on their levels) and one join
    of their tokens: no ``ExtCost`` is compared.

    Only fullness is the caller's to check, since the vector of a partial
    state is not the potential.
    """

    value: LexVector | None

    def __init__(self, game: Game):
        _require_shared_singleton(game)
        super().__init__(game)
        self.scale = 1
        self.width = 1 + max(map(game.priorities.max_level, game.resources), default=0)
        self._finite: dict[str, list[tuple[int, str, Pair]]] = {r: [] for r in game.resources}
        self._infinite: dict[str, tuple[tuple[int, str, Pair], ...]] = dict.fromkeys(
            game.resources, ()
        )

    def _merge(self) -> LexVector:
        merged = sorted(chain.from_iterable(self._finite.values()), key=itemgetter(0))
        keys: tuple[int, ...] | None = tuple(map(itemgetter(0), merged))
        if any(self._infinite.values()):  # +inf pairs, rare, close the vector
            merged += sorted(chain.from_iterable(self._infinite.values()), key=itemgetter(0))
            keys = None
        return LexVector(
            pairs=tuple(map(itemgetter(2), merged)),
            keys=keys,
            scale=self.scale,
            width=self.width,
            text=";".join(map(itemgetter(1), merged)),
        )

    def _rederive(self, rid: str, row: dict[int, int] | None) -> None:
        block = _delay_block(self.game, rid, row or {})
        if any(c.den and self.scale % c.den for c, _ in block):
            self.scale = lcm(self.scale, *(c.den for c, _ in block if c.den))
            for r, entries in self._finite.items():  # re-key every block
                pairs = list(map(itemgetter(2), entries))
                keys = _block_keys(r, pairs, self.scale, self.width, "delay")
                self._finite[r] = list(zip(keys, map(itemgetter(1), entries), pairs))
        keys = _block_keys(rid, block, self.scale, self.width, "delay")
        tokens = [f"{c.to_string()}@{q}" for c, q in block]
        self._rows[rid], self.value = row, None
        self._finite[rid] = list(zip(keys, tokens, block))
        if (cut := len(keys)) < len(block) or self._infinite[rid]:
            tail = block[cut:]
            self._infinite[rid] = tuple(zip(map(itemgetter(1), tail), tokens[cut:], tail))


def lex_compare(a: LexVector, b: LexVector) -> int:
    """LESS/EQUAL/GREATER by the first differing pair (cost, then level).

    Two vectors that keep their keys over one scale and width compare on
    the keys, which order the pairs exactly as the pairs do
    (:func:`_lex_vector`).
    """
    if len(a.pairs) != len(b.pairs):
        raise LengthMismatchError(
            f"cannot compare potentials of lengths {len(a.pairs)} and {len(b.pairs)}"
        )
    if a.keys is not None and b.keys is not None and (a.scale, a.width) == (b.scale, b.width):
        return LESS if a.keys < b.keys else GREATER if b.keys < a.keys else EQUAL
    for pa, pb in zip(a.pairs, b.pairs):
        if pa < pb:
            return LESS
        if pb < pa:
            return GREATER
    return EQUAL


def falls(new: LexVector | ScalarPotential, old: LexVector | ScalarPotential) -> bool:
    """Whether a descending run's potential dropped strictly: a vector by
    :func:`lex_compare`, a scalar by value or on a plateau at +inf."""
    if isinstance(new, LexVector):
        return lex_compare(new, old) == LESS
    return new.value < old.value or not (new.value.is_finite or old.value.is_finite)


def level_potential(game: Game, state: State, q: int) -> ScalarPotential:
    """Exact potential of the level-q subgame, read from one state.

    A level-q player's delay counts only more prioritized and equal-priority
    co-users, so the state alone fixes the subgame: players below q are
    frozen, players at q are active, and less prioritized players (above q)
    are ignored.  The value is sum over resources e of
    sum_{k=1..count at q} d_e(count below q, k), read from the state's
    :func:`tally` table by a new :class:`LevelRun`; changes under a
    unilateral level-q deviation equal the deviator's cost change exactly.
    """
    return LevelRun(game, state, q).value


def _require_level_game(game: Game) -> None:
    if not game.priorities.consistent:
        raise InconsistentPrioritiesError("the level potential needs consistent priorities")
    if game.player_specific:
        raise PlayerSpecificInputError("the level potential needs one shared delay per resource")


class LevelRun(_RowRun):
    """The level-q potential of the states of one layer, kept by terms.

    Per resource it keeps (see :class:`_RowRun`) its term of
    :func:`level_potential`, sum_{k=1..count at q} d(count below q, k),
    read from its row and the point table of the resource's delay; the
    value is the sum of the kept terms.  The
    layered solver steps one run per shared-delay layer, and
    ``certify_trace`` starts one on each ``layer:<q>`` phase.
    """

    value: ScalarPotential | None

    def __init__(self, game: Game, state: State, q: int):
        _require_level_game(game)
        super().__init__(game)
        self.q = q
        self._terms: dict[str, ExtCost] = {}
        self.at(state)

    def _merge(self) -> ScalarPotential:
        return ScalarPotential(sum_costs(self._terms.values()))

    def _rederive(self, rid: str, row: dict[int, int] | None) -> None:
        self._rows[rid], self.value = row, None
        row, table = row or {}, self.game.points(rid)
        below = count_below(row, self.q)
        self._terms[rid] = sum_costs(table[below, k] for k in range(1, row.get(self.q, 0) + 1))


def market_lex_potential(market: MarketGame, prof: State) -> LexVector:
    """The market analogue of the singleton-game potential.

    Pairs are (d(c, below(c), y), rank(c)) over each resource's present cost
    values, globally sorted.  The second slot is the per-resource dense rank
    of the raw cost, which preserves every same-resource comparison the
    decrease argument relies on while keeping the slot an integer.  Like
    the singleton potential, the pairs are checked and sorted on exact
    integer keys over one shared denominator (:func:`_lex_vector`).  The
    covered strategies are validated first (``ValidationFailed``); a
    profile missing players raises ``LengthMismatchError``.
    """
    _require_singleton(market)
    validate_state(market, prof)
    missing = set(market.players()) - set(prof.players())
    if missing:
        raise LengthMismatchError(f"profile must cover all players, missing {sorted(missing)}")
    # per resource, how many of its users have each raw cost
    tally: dict[str, dict[Fraction, int]] = {}
    for p, s in prof.items():
        for rid in s:
            row = tally.setdefault(rid, {})
            c = market.costs[(p, rid)]
            row[c] = row.get(c, 0) + 1
    blocks: dict[str, list[tuple[ExtCost, int]]] = {}
    for rid in market.resources:
        tri = market.delays[rid]
        block = blocks[rid] = []
        prefix = 0
        for c, cnt in sorted(tally.get(rid, {}).items()):
            rank = market.cost_rank(rid, c)
            for y in range(1, cnt + 1):
                block.append((tri.value(rank, prefix, y), rank))
            prefix += cnt
    return _lex_vector(blocks, "market")


# ---------------------------------------------------------------------------
# Insertion potential


class Tolerance(NamedTuple):
    """A placed singleton player's standing in one state.

    ``ceiling`` is her least entry cost over her alternatives (+inf when she
    has none), ``stay`` her cost where she is, ``tol`` her tolerance, and
    ``improvable`` is ``ceiling < stay``: some strategy strictly beats hers.
    """

    ceiling: ExtCost
    stay: ExtCost
    tol: int
    improvable: bool


def tolerance(game: Game, state: State, player: int) -> Tolerance:
    """The player's :class:`Tolerance` record, priced afresh on every call.

    The walk over her :meth:`~prioritygames.core.Game.plan` reads the
    state's :func:`tally` rows and her point tables.  Her stay is
    d(below, count at q) on her own resource; the ceiling is the least
    :func:`~prioritygames.congestion.entry_price` over ``singleton_resources``
    of her space other than her own resource.  Dead ground elements, which
    no strategy uses, are never priced.  Only the counts on resources in her ground are
    read, so a move on a resource she cannot reach leaves her record
    unchanged; the insertion solver relies on that to refresh tolerances
    incrementally.  Her tolerance is counted on her own point table.

    For a singleton player, ``improvable`` is exactly
    :func:`~prioritygames.congestion.has_better_response`: her entry weight
    on her own resource is her stay cost, and a better strategy is an
    alternative strictly below it.  Nothing is kept: the runs that reuse
    records, :class:`InsertionRun`'s, keep their own.
    """
    counts = tally(game, state)
    strategy = state.strategy(player)
    if len(strategy) != 1:
        raise NotSingletonError("tolerance is defined for singleton strategies")
    (rid,) = strategy
    live = singleton_resources(game.spaces[player])
    ceiling = INFINITY
    for r, q, table in game.plan(player):
        if r == rid:
            row = counts[r]
            own, below = table, count_below(row, q)
            stay = table[below, row[q]]
        elif r in live:
            price = entry_price(counts.get(r, {}), q, table, 1)
            if price < ceiling:
                ceiling = price
    tol = _tolerance_count(game.n_players, own, below, ceiling)
    return Tolerance(ceiling, stay, tol, ceiling < stay)


def tol_value(game: Game, state: State, player: int) -> int:
    """How crowded the player's resource may get before she wants to leave.

    The largest y (capped at the player count: congestion never exceeds it)
    such that staying with y equal-priority co-users, herself included, costs
    at most every alternative resource's post-move delay, the ceiling of
    her :func:`tolerance` record.  Zero when even y = 1 is beaten, which only
    happens in states where she already has a better response.
    """
    return tolerance(game, state, player).tol


def _tolerance_count(n: int, table: Points, below: int, ceiling: ExtCost) -> int:
    """The largest y in 0..n with d(below, y') <= ceiling for every y' <= y.

    An affine spec d(x, y) = alpha * (x + (y + 1)/2) + beta solves for y
    in closed form on ints alone: the table's kept ``affine`` ints
    alpha = a_n/a_d, beta = b_n/b_d, and the ceiling's kept ``num`` and
    ``den``, c = c_n/c_d.  d(below, y) <= c reads
    y <= 2(c - beta)/alpha - 2 below - 1, so
    y = floor(2 a_d (c_n b_d - b_n c_d) / (c_d b_d a_n)) - 2 below - 1,
    clipped to [0, n].  With alpha = 0 the delay is beta everywhere: n when
    b_n c_d <= c_n b_d (beta <= c), else 0.  An infinite ceiling (c_d = 0)
    gives n.  No ``Fraction`` is read.

    Any other spec is bisected on the table.  ``build_game`` checks that
    every accepted spec is nondecreasing in y on the whole domain up to
    ``required_table_bound``, which for singleton games holds every probe
    here (x = below <= n - 1, y <= n), so "d(below, y) <= ceiling" holds on
    a prefix of 1..n and the bisection finds that prefix's end, the value a
    linear scan stopping at the first failure would find.  Every probe lies
    in that same domain, so no probe raises where the scan would not.
    """
    affine = table.affine
    if affine is not None:
        c_n, c_d = ceiling.num, ceiling.den
        if not c_d:
            return n
        a_n, a_d, b_n, b_d = affine
        if not a_n:
            return n if b_n * c_d <= c_n * b_d else 0
        y = 2 * a_d * (c_n * b_d - b_n * c_d) // (c_d * b_d * a_n) - 2 * below - 1
        return max(0, min(n, y))
    # d(below, y) <= ceiling for every 1 <= y <= lo, and > ceiling for y > hi
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if table[below, mid] <= ceiling:
            lo = mid
        else:
            hi = mid - 1
    return lo


def insertion_potential(game: Game, state: State) -> InsertionPotentialValue:
    """The two-part termination potential of the insertion algorithm.

    First part: per resource e, the vector (count at level 1, ..., count at
    level q*_e) of present players by priority level, rows sorted
    lexicographically nondecreasing.  Second part: the summed tolerance of
    all covered players.  The algorithm strictly increases this value, rows
    compared first.  Both parts read the state's :func:`tally` table, so
    the state is counted at most once for the rows and every tolerance.
    """
    _require_singleton(game)
    validate_state(game, state)
    tol_sum = sum(tol_value(game, state, p) for p in state.players())
    return InsertionPotentialValue(rows=insertion_rows(game, tally(game, state)), tol_sum=tol_sum)


def insertion_rows(game: Game, counts: Mapping[str, dict]) -> tuple[tuple[int, ...], ...]:
    """The insertion potential's first part, read afresh from a level-count
    table.

    Per resource e, the counts at levels 1..q*_e (q*_e its largest level in
    the game), rows sorted lexicographically nondecreasing.
    """
    rows = []
    for rid in game.resources:
        row = counts.get(rid, {})
        rows.append(tuple(row.get(q, 0) for q in range(1, game.priorities.max_level(rid) + 1)))
    return tuple(sorted(rows))


class InsertionRun(_RowRun):
    """The insertion potential of the states of one run, kept across rows.

    ``records`` holds every placed player's :func:`tolerance` record,
    ``improvable`` the players whose record has a strictly better
    alternative, ``value`` the potential of the last state, and ``reach``
    the game's :func:`~prioritygames.congestion.reach_index` over all its
    players.  Per resource it keeps the level-count row (see
    :class:`_RowRun`) and, as its part, the row's entry of the first part:
    the tuple of its counts at levels 1..q*_e (q*_e the resource's largest
    level in the game) and that tuple's ``","``-joined token.  The m
    entries sit in one list sorted by tuple, which is the order
    :func:`insertion_rows` gives.  ``_rederive`` queues the players whose
    record a changed row can change, those of ``reach[r]`` at or above its
    lowest changed level.  ``_merge`` re-prices the queued placed players
    and runs the tolerance sum along.  It then re-reads the entry of every
    resource whose kept row is not the row object its entry was built
    from, moving it by bisection in the sorted list, and reads the value
    off that list: the rows are its tuples, and the canonical text joins
    its tokens.  So a read formats only the rows it changed.  That is
    exact.  A record reads only (count below, count at) her own level on
    resources in her ground, so a p whose level on r is below every changed
    level of r's row reads no changed count there.  A player whose own
    strategy changed is queued too (:meth:`at`): a jump that moves several
    players at once can leave her rows as they were.  Tied rows have equal
    tuples and equal tokens, so which of them a bisection removes does not
    matter.

    The insertion solver and ``certify_trace`` each read their own run by
    :meth:`at`, on their own states; certify checks its last ``value``
    against a fresh :func:`insertion_potential` of a new copy of the final
    state, so a slip in this bookkeeping shows there.  The caller vouches
    for every state being legal: the solver places only legal strategies,
    and certify validates the start and each row's strategy.
    """

    value: InsertionPotentialValue | None

    def __init__(self, game: Game, state: State):
        super().__init__(game)
        self.reach = reach_index(game, game.players())
        self.records: dict[int, Tolerance] = {}
        self.improvable: set[int] = set()
        self._tol_sum = 0
        self._queued: set[int] = set()
        self._state = State({})
        self._tops = {rid: game.priorities.max_level(rid) for rid in game.resources}
        # per resource, the row its entry was built from, and the entry
        self._built: dict[str, dict[int, int] | None] = dict.fromkeys(game.resources)
        self._entries = {rid: _row_entry({}, top) for rid, top in self._tops.items()}
        self._sorted = sorted(self._entries.values())
        self.at(state)

    def at(self, state: State, mover: int | None = None) -> InsertionPotentialValue:
        """The value of ``state``.  A caller that stepped exactly one player
        since its last read, as the solver and certify do, names her as
        ``mover``; otherwise the two states' strategies are diffed."""
        if mover is None:
            self._queued.update(p for p, _ in self._state._strats.items() ^ state._strats.items())
        elif state is not self._state:
            self._queued.add(mover)
        if self._queued:
            self.value = None
        self._state = state
        return super().at(state)

    def _rederive(self, rid: str, row: dict[int, int] | None) -> None:
        kept, new = self._rows[rid] or {}, row or {}
        q = min(k for k in kept.keys() | new.keys() if kept.get(k) != new.get(k))
        self._queued.update(p for p, level in self.reach[rid] if level >= q)
        self._rows[rid], self.value = row, None

    def _merge(self) -> InsertionPotentialValue:
        game, state, records, improvable = self.game, self._state, self.records, self.improvable
        for p in self._queued:
            old = records.pop(p, None)
            if old is not None:
                self._tol_sum -= old.tol
                improvable.discard(p)
            if state.covers(p):
                record = records[p] = tolerance(game, state, p)
                self._tol_sum += record.tol
                if record.improvable:
                    improvable.add(p)
        self._queued.clear()
        built, entries, ordered = self._built, self._entries, self._sorted
        for rid, row in self._rows.items():
            if row is not built[rid]:
                del ordered[bisect_left(ordered, entries[rid])]
                entry = entries[rid] = _row_entry(row or {}, self._tops[rid])
                insort(ordered, entry)
                built[rid] = row
        text = f"phi={'|'.join(map(itemgetter(1), ordered))};tol={self._tol_sum}"
        return InsertionPotentialValue(tuple(map(itemgetter(0), ordered)), self._tol_sum, text)


def _row_entry(row: dict[int, int], top: int) -> tuple[tuple[int, ...], str]:
    """A resource's entry of the insertion potential's first part: its
    counts at levels 1..``top`` and their ``","``-joined token."""
    counts = tuple(map(row.get, range(1, top + 1), repeat(0)))
    return counts, ",".join(map(str, counts))


def insertion_potential_compare(a: InsertionPotentialValue, b: InsertionPotentialValue) -> int:
    """Row-sequence lexicographic on the sorted rows, then the tolerance sum."""
    if len(a.rows) != len(b.rows) or sorted(map(len, a.rows)) != sorted(map(len, b.rows)):
        raise ShapeMismatchError("potentials come from differently shaped games")
    if a.rows < b.rows:
        return LESS
    if b.rows < a.rows:
        return GREATER
    if a.tol_sum < b.tol_sum:
        return LESS
    if b.tol_sum < a.tol_sum:
        return GREATER
    return EQUAL

"""Strategy spaces: singletons, explicit families, and matroids.

Matroid spaces (uniform, partition, graphic, explicit-bases) expose an
independence oracle, an exact greedy minimum weight base, and decomposition
of improving moves into single-element swaps.
Explicit set families are supported as general (non-matroid) strategy
spaces; they fall back to enumeration everywhere.

All spaces are immutable after construction and validated eagerly:
``ExplicitBasesSpace`` checks the exchange axiom exhaustively, graphic
spaces require a connected graph, partition blocks must be disjoint, and
no space is empty.  Every space stores its ground set and rank once.
Listing every base (``all_bases``) is desk scale; on matroid kinds,
parsing, solving and certifying use only the ground set, the rank and the
independence oracle, so a uniform or partition space with far too many
bases to list still parses and solves.
"""

from __future__ import annotations

import itertools
from typing import Collection, Iterable, Mapping, Sequence

from .costs import ExtCost, sum_costs
from .errors import (
    InvariantViolatedError,
    NoExchangeError,
    NotImprovingError,
    ValidationFailed,
    Violation,
)

def _set_key(s: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(s))


class StrategySpace:
    """Common interface; concrete spaces subclass this."""

    kind = "abstract"
    matroid = False  # True when the greedy/exchange machinery applies
    _singletons: frozenset[str] | None = None  # kept by singleton_resources
    _picks: tuple[tuple[str, frozenset[str]], ...] | None = None  # kept by greedy_min_base
    _ground: frozenset[str]  # set by every constructor
    _rank: int  # set by every constructor: the size of the longest strategy

    def ground(self) -> frozenset[str]:
        return self._ground

    def rank(self) -> int:
        return self._rank

    def is_base(self, s: frozenset[str]) -> bool:
        raise NotImplementedError

    def is_independent(self, s: frozenset[str]) -> bool:
        raise NotImplementedError

    def all_bases(self) -> tuple[frozenset[str], ...]:
        """Every strategy, sorted by element ids.  Desk scale only.

        Uniform, partition and graphic spaces enumerate on the first call.
        The callers that need the whole list are the brute-force oracle,
        explicit families (:func:`greedy_min_base` and the JSON emitter read
        their stored tuple), restarts of capped layers, and space equality
        and hashing.
        """
        raise NotImplementedError

    def is_singleton_space(self) -> bool:
        """True when every strategy has exactly one resource.

        Matroid bases share one size, and explicit families hold nonempty
        sets only, so a rank of 1 means every strategy has one element.
        """
        return self._rank == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StrategySpace)
            and self.kind == other.kind
            and self.all_bases() == other.all_bases()
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.all_bases()))


class SingletonSpace(StrategySpace):
    """One resource per strategy; equivalent to a rank-1 uniform matroid."""

    kind = "singleton"
    matroid = True

    def __init__(self, allowed: Iterable[str]):
        self._ground = frozenset(allowed)
        if not self._ground:
            raise ValidationFailed(
                "empty strategy space",
                [Violation("EMPTY_SPACE", "singleton", "no allowed resources")],
            )
        self._rank = 1
        self._bases = tuple(
            sorted((frozenset([r]) for r in self._ground), key=_set_key)
        )

    def is_base(self, s: frozenset[str]) -> bool:
        return len(s) == 1 and next(iter(s)) in self._ground

    def is_independent(self, s: frozenset[str]) -> bool:
        return len(s) <= 1 and s <= self._ground

    def all_bases(self) -> tuple[frozenset[str], ...]:
        return self._bases


class ExplicitSpace(StrategySpace):
    """An arbitrary nonempty family of resource sets (not assumed a matroid)."""

    kind = "explicit"
    matroid = False

    def __init__(self, sets: Iterable[Iterable[str]]):
        family = sorted({frozenset(s) for s in sets}, key=_set_key)
        if not family:
            raise ValidationFailed(
                "empty strategy space",
                [Violation("EMPTY_SPACE", "explicit", "no strategy sets")],
            )
        if any(not s for s in family):
            raise ValidationFailed(
                "empty strategy",
                [Violation("EMPTY_STRATEGY", "explicit", "a strategy set is empty")],
            )
        self._sets = tuple(family)
        self._ground = frozenset().union(*family)
        # informational only: families need not be equicardinal
        self._rank = max(len(s) for s in family)

    def is_base(self, s: frozenset[str]) -> bool:
        return s in self._sets

    def is_independent(self, s: frozenset[str]) -> bool:
        raise TypeError("explicit families have no independence oracle")

    def all_bases(self) -> tuple[frozenset[str], ...]:
        return self._sets


class UniformMatroid(StrategySpace):
    kind = "uniform"
    matroid = True

    def __init__(self, ground: Iterable[str], rank: int):
        self._ground = frozenset(ground)
        if rank < 1 or rank > len(self._ground):
            raise ValidationFailed(
                "bad uniform rank",
                [Violation("BAD_RANK", "uniform", f"rank {rank} vs ground {len(self._ground)}")],
            )
        self._rank = rank
        self._bases: tuple[frozenset[str], ...] | None = None

    def is_base(self, s: frozenset[str]) -> bool:
        return len(s) == self._rank and s <= self._ground

    def is_independent(self, s: frozenset[str]) -> bool:
        return len(s) <= self._rank and s <= self._ground

    def all_bases(self) -> tuple[frozenset[str], ...]:
        if self._bases is None:
            combos = itertools.combinations(sorted(self._ground), self._rank)
            self._bases = tuple(frozenset(c) for c in combos)
        return self._bases


class PartitionMatroid(StrategySpace):
    """Pick exactly ``cap_i`` elements from each block."""

    kind = "partition"
    matroid = True

    def __init__(self, blocks: Sequence[Iterable[str]], caps: Sequence[int]):
        blocks = [frozenset(b) for b in blocks]
        if len(blocks) != len(caps):
            raise ValidationFailed(
                "blocks/caps length mismatch",
                [Violation("BAD_PARTITION", "partition", "len(blocks) != len(caps)")],
            )
        seen: set[str] = set()
        for b in blocks:
            if b & seen:
                raise ValidationFailed(
                    "overlapping partition blocks",
                    [Violation("BAD_PARTITION", "partition", f"elements repeated: {sorted(b & seen)}")],
                )
            seen |= b
        for b, c in zip(blocks, caps):
            if c < 0 or c > len(b):
                raise ValidationFailed(
                    "bad partition cap",
                    [Violation("BAD_PARTITION", "partition", f"cap {c} vs block size {len(b)}")],
                )
        if sum(caps) < 1:
            raise ValidationFailed(
                "empty strategy space",
                [Violation("EMPTY_SPACE", "partition", "all caps are zero")],
            )
        self._blocks = tuple(blocks)
        self._caps = tuple(int(c) for c in caps)
        self._ground = frozenset(seen)
        self._rank = sum(self._caps)
        self._bases: tuple[frozenset[str], ...] | None = None

    def is_base(self, s: frozenset[str]) -> bool:
        if not s <= self._ground:
            return False
        return all(len(s & b) == c for b, c in zip(self._blocks, self._caps))

    def is_independent(self, s: frozenset[str]) -> bool:
        if not s <= self._ground:
            return False
        return all(len(s & b) <= c for b, c in zip(self._blocks, self._caps))

    def all_bases(self) -> tuple[frozenset[str], ...]:
        if self._bases is None:
            per_block = [
                [frozenset(c) for c in itertools.combinations(sorted(b), cap)]
                for b, cap in zip(self._blocks, self._caps)
            ]
            bases = [
                frozenset().union(*parts) for parts in itertools.product(*per_block)
            ]
            self._bases = tuple(sorted(bases, key=_set_key))
        return self._bases


class GraphicMatroid(StrategySpace):
    """Bases are the spanning trees of a connected (multi)graph.

    Edges are (u, v, resource_id) triples; resource ids must be unique.
    """

    kind = "graphic"
    matroid = True

    MAX_EDGES = 12  # desk scale: spanning trees are handled by enumeration

    def __init__(self, edges: Sequence[tuple[str, str, str]]):
        edges = [(str(u), str(v), str(rid)) for u, v, rid in edges]
        rids = [rid for _, _, rid in edges]
        if len(set(rids)) != len(rids):
            raise ValidationFailed(
                "duplicate edge ids",
                [Violation("BAD_GRAPH", "graphic", "edge resource ids must be unique")],
            )
        if not edges:
            raise ValidationFailed(
                "empty graph",
                [Violation("BAD_GRAPH", "graphic", "no edges")],
            )
        if len(edges) > self.MAX_EDGES:
            raise ValidationFailed(
                "graph too large",
                [Violation("BAD_GRAPH", "graphic", f"at most {self.MAX_EDGES} edges supported")],
            )
        self._edges = tuple(edges)
        self._by_rid = {rid: (u, v) for u, v, rid in edges}
        self._ground = frozenset(self._by_rid)
        self._vertices = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
        if not self._connected(self._by_rid.keys()):
            raise ValidationFailed(
                "disconnected graph",
                [Violation("BAD_GRAPH", "graphic", "graph must be connected")],
            )
        self._rank = len(self._vertices) - 1
        if self._rank < 1:
            raise ValidationFailed(
                "degenerate graph",
                [Violation("BAD_GRAPH", "graphic", "need at least two vertices")],
            )
        self._bases: tuple[frozenset[str], ...] | None = None

    def _union_find(self, rids: Iterable[str]) -> tuple[int, bool]:
        """Return (#components over all vertices, acyclic?)."""
        parent = {v: v for v in self._vertices}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        comps = len(self._vertices)
        for rid in rids:
            u, v = self._by_rid[rid]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
            else:
                parent[ru] = rv
                comps -= 1
        return comps, acyclic

    def _connected(self, rids: Iterable[str]) -> bool:
        comps, _ = self._union_find(rids)
        return comps == 1

    def edges(self) -> tuple[tuple[str, str, str], ...]:
        return self._edges

    def is_base(self, s: frozenset[str]) -> bool:
        if len(s) != self._rank or not s <= self._ground:
            return False
        comps, acyclic = self._union_find(s)
        return acyclic and comps == 1

    def is_independent(self, s: frozenset[str]) -> bool:
        if not s <= self._ground:
            return False
        _, acyclic = self._union_find(s)
        return acyclic

    def all_bases(self) -> tuple[frozenset[str], ...]:
        if self._bases is None:
            combos = itertools.combinations(sorted(self._ground), self._rank)
            self._bases = tuple(
                frozenset(c) for c in combos if self.is_base(frozenset(c))
            )
        return self._bases


class ExplicitBasesSpace(StrategySpace):
    """A matroid given by listing its bases; the exchange axiom is verified."""

    kind = "explicit_bases"
    matroid = True

    def __init__(self, bases: Iterable[Iterable[str]]):
        family = sorted({frozenset(b) for b in bases}, key=_set_key)
        if not family:
            raise ValidationFailed(
                "empty strategy space",
                [Violation("EMPTY_SPACE", "explicit_bases", "no bases")],
            )
        if any(not b for b in family):
            raise ValidationFailed(
                "empty strategy",
                [Violation("EMPTY_STRATEGY", "explicit_bases", "a base is empty")],
            )
        sizes = {len(b) for b in family}
        violations = []
        if len(sizes) != 1:
            violations.append(
                Violation("UNEQUAL_BASES", "explicit_bases", f"base sizes {sorted(sizes)} differ")
            )
        else:
            violations.extend(self._check_exchange(family))
        if violations:
            raise ValidationFailed("not a matroid", violations)
        self._bases = tuple(family)
        self._rank = len(family[0])
        self._ground = frozenset().union(*family)

    @staticmethod
    def _check_exchange(family: list[frozenset[str]]) -> list[Violation]:
        out = []
        for s in family:
            for t in family:
                for e in s - t:
                    if not any((s - {e}) | {f} in family for f in t - s):
                        out.append(
                            Violation(
                                "EXCHANGE_FAILED",
                                "explicit_bases",
                                f"no exchange for {sorted(s)} -> {sorted(t)} dropping {e}",
                            )
                        )
        return out

    def is_base(self, s: frozenset[str]) -> bool:
        return s in self._bases

    def is_independent(self, s: frozenset[str]) -> bool:
        return any(s <= b for b in self._bases)

    def all_bases(self) -> tuple[frozenset[str], ...]:
        return self._bases


def singleton_resources(space: StrategySpace) -> frozenset[str]:
    """Resources r with {r} a legal strategy.

    For singleton-equivalent spaces this can be a strict subset of the
    ground set (a rank-1 partition matroid with a zero cap carries dead
    ground elements).  Asks the space's ``is_base`` once per ground element
    and lists no bases.  Computed once per space: spaces are immutable, so
    the set is kept on the space and every later call returns it.
    """
    if space._singletons is None:
        space._singletons = frozenset(r for r in space.ground() if space.is_base(frozenset({r})))
    return space._singletons


def base_weight(s: Collection[str], weights: Mapping[str, ExtCost]) -> ExtCost:
    """The total weight of a strategy; a one-element one's is read, not summed."""
    if len(s) == 1:
        (r,) = s
        return weights[r]
    return sum_costs(weights[r] for r in s)


def greedy_min_base(
    space: StrategySpace, weights: Mapping[str, ExtCost]
) -> frozenset[str]:
    """A minimum-total-weight strategy; ties break toward smaller ids.

    This is the one cheapest-strategy rule: best responses, better-response
    checks, layer placements and insertion placements all call it on entry
    weights.  Runs the matroid greedy algorithm when an independence oracle
    exists, otherwise enumerates the explicit family; either way ties go to
    the smallest sorted id list (greedy scans elements by (weight, id)).
    Exact for matroids because per-element weights are independent.

    A matroid of rank 1 takes one pass, which is the greedy's answer: the
    sorted scan keeps the first element whose singleton is independent, and
    on rank 1 an independent singleton is a base.  The space keeps its
    picks on first use, the (r, {r}) pairs of :func:`singleton_resources`
    sorted by id, and the pass keeps a pick only when its weight is
    strictly below the lightest so far, so the smallest id wins a tie.  It
    returns the kept base itself and builds no set.

    Raises ``ValueError`` naming the ground elements ``weights`` lacks.
    """
    if not weights.keys() >= space.ground():
        missing = space.ground() - weights.keys()
        raise ValueError(f"weights missing for {sorted(missing)}")
    if not space.matroid:
        return min(
            space.all_bases(),
            key=lambda b: (base_weight(b, weights), _set_key(b)),
        )
    if space.rank() == 1:
        picks = space._picks
        if picks is None:
            picks = space._picks = tuple(
                (r, frozenset([r])) for r in sorted(singleton_resources(space))
            )
        kept, low = picks[0][1], weights[picks[0][0]]
        for r, base in picks:
            if (w := weights[r]) < low:
                low, kept = w, base
        return kept
    chosen: set[str] = set()
    for r in sorted(space.ground(), key=lambda r: (weights[r], r)):
        if len(chosen) == space.rank():
            break
        if space.is_independent(frozenset(chosen | {r})):
            chosen.add(r)
    result = frozenset(chosen)
    if not space.is_base(result):
        raise InvariantViolatedError(
            f"greedy stopped at {sorted(result)}, which is not a base of the space"
        )
    return result


def lazy_path(
    space: StrategySpace,
    start: Iterable[str],
    goal: Iterable[str],
    weights: Mapping[str, ExtCost],
) -> list[frozenset[str]]:
    """Single-swap descent from ``start`` to some base at most as heavy as ``goal``.

    Each swap replaces one element by a strictly lighter one, so the sorted
    weight multiset strictly decreases and the walk terminates; whenever the
    running total is finite the total weight strictly decreases too.  The
    first valid swap in (element id, replacement id) order is taken, making
    paths reproducible.
    """
    start, goal = frozenset(start), frozenset(goal)
    if not space.matroid:
        raise TypeError("lazy paths require a matroid space")
    if not (space.is_base(start) and space.is_base(goal)):
        raise ValueError("lazy_path requires two bases")
    target_weight = base_weight(goal, weights)
    if not target_weight < base_weight(start, weights):
        raise NotImprovingError("goal base is not strictly lighter than start")
    path = [start]
    current = start
    while target_weight < base_weight(current, weights):
        swapped = False
        for e in sorted(current):
            for e2 in sorted(space.ground() - current):
                if weights[e2] < weights[e] and space.is_base((current - {e}) | {e2}):
                    current = (current - {e}) | {e2}
                    path.append(current)
                    swapped = True
                    break
            if swapped:
                break
        if not swapped:  # impossible for a true matroid with heavier current
            raise NoExchangeError("no improving swap found; space is not a matroid")
    return path

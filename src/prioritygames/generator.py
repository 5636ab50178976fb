"""Seeded random instance generation for the property suites.

Instances are deterministic per seed and valid by construction: bivariate
tables are built monotone-completed (row y = 1 first, then each (x, y)
sampled between its monotonicity floor and its replacement ceiling
d(x+y-1, 1)), so the three delay axioms hold everywhere; trivariate market
tables add nondecreasing per-cost-level offsets on top.  A table is built
on plain ints, each value a numerator over the one scale 4^(bound - 1),
which holds every value exactly (see :func:`_monotone_table`); each is
written out as ``p/q`` reduced by one gcd.  Every generated document is
re-validated through the parser before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import domain_points, required_table_bound
from .costs import format_fraction
from .jsonio import _parse_space, document_to_source, instance_to_document

MAX_PLAYERS = 8
MAX_RESOURCES = 6

SPACE_KINDS = ("singleton", "explicit", "uniform", "partition", "graphic", "mixed")


@dataclass(frozen=True)
class GenParams:
    players: int
    resources: int
    model: str = "priority"  # priority | classic | affine | market
    space_kind: str = "singleton"
    max_delay: int = 12
    levels: int = 2
    consistent: bool = False
    player_specific: bool = False


def generate_random_instance(params: GenParams, seed: int) -> dict:
    """A canonical instance document, deterministic in (params, seed)."""
    if not 1 <= params.players <= MAX_PLAYERS:
        raise ValueError(f"players must be 1..{MAX_PLAYERS}")
    if not 1 <= params.resources <= MAX_RESOURCES:
        raise ValueError(f"resources must be 1..{MAX_RESOURCES}")
    if params.model not in ("priority", "classic", "affine", "market"):
        raise ValueError(f"unknown model {params.model!r}")
    if params.space_kind not in SPACE_KINDS:
        raise ValueError(f"unknown space kind {params.space_kind!r}")
    if params.levels < 1:
        raise ValueError("levels must be >= 1")
    if params.max_delay < 2:
        raise ValueError("max_delay must be >= 2")

    rng = random.Random(seed)
    n, m = params.players, params.resources
    rids = [chr(ord("a") + k) for k in range(m)]
    doc: dict = {
        "version": 1,
        "model": params.model,
        "players": n,
        "resources": list(rids),
        "strategies": {
            str(i): _random_space(rng, params.space_kind, rids) for i in range(1, n + 1)
        },
    }
    # tables always reach the singleton-game requirement; over-provisioning
    # for wider spaces is a few extra rows and keeps the generator simple
    bound = required_table_bound(n, singleton=True)

    if params.model == "market":
        pool = [Fraction(v) for v in range(1, min(4, params.levels + 1) + 1)]
        costs: dict[str, dict[str, Fraction]] = {}
        for i in range(1, n + 1):
            ground = sorted(_parse_space(doc["strategies"][str(i)], f"strategies.{i}").ground())
            costs[str(i)] = {rid: rng.choice(pool) for rid in ground}
        doc["cost_matrix"] = {
            key: {rid: format_fraction(c) for rid, c in rmap.items()}
            for key, rmap in costs.items()
        }
        doc["market_delays"] = {}
        for rid in rids:
            values = {rmap[rid] for rmap in costs.values() if rid in rmap}
            doc["market_delays"][rid] = _random_tritable(
                rng, len(values), bound, params.max_delay
            )
    else:
        consistent = params.consistent or params.model == "affine" or params.levels == 1
        doc["priorities"] = _random_priorities(rng, n, rids, params.levels, consistent)
        if params.model == "classic":
            doc["delays"] = {
                rid: _random_classic(rng, n, params.max_delay) for rid in rids
            }
        elif params.model == "affine":
            doc["delays"] = {rid: _random_affine(rng) for rid in rids}
        elif params.player_specific:
            doc["player_specific"] = {}
            for i in range(1, n + 1):
                ground = sorted(_parse_space(doc["strategies"][str(i)], f"strategies.{i}").ground())
                doc["player_specific"][str(i)] = {
                    rid: _random_table(rng, bound, params.max_delay) for rid in ground
                }
            uncovered = [
                rid
                for rid in rids
                if not any(
                    rid in doc["player_specific"][str(i)] for i in range(1, n + 1)
                )
            ]
            if uncovered:
                doc["delays"] = {
                    rid: _random_table(rng, bound, params.max_delay) for rid in uncovered
                }
        else:
            doc["delays"] = {rid: _random_table(rng, bound, params.max_delay) for rid in rids}

    # round through the parser: validates, then canonicalizes field order
    return instance_to_document(document_to_source(doc))


def _random_space(rng: random.Random, kind: str, rids: list[str]) -> dict:
    if kind == "mixed":
        kind = rng.choice(["singleton", "explicit", "uniform", "partition"])
    if kind == "singleton" or len(rids) == 1:
        size = rng.randint(1, len(rids))
        return {"kind": "singleton", "allowed": sorted(rng.sample(rids, size))}
    if kind == "explicit":
        want = rng.randint(2, 4)
        sets: set[tuple[str, ...]] = set()
        for _ in range(want * 4):
            size = rng.randint(1, min(2, len(rids)))
            sets.add(tuple(sorted(rng.sample(rids, size))))
            if len(sets) == want:
                break
        return {"kind": "explicit", "sets": sorted(list(s) for s in sets)}
    if kind == "uniform":
        g = rng.randint(2, min(5, len(rids)))
        ground = sorted(rng.sample(rids, g))
        return {"kind": "uniform", "ground": ground, "rank": rng.randint(1, min(2, g))}
    if kind == "partition":
        g = rng.randint(2, min(5, len(rids)))
        chosen = rng.sample(rids, g)
        cut = rng.randint(1, g - 1)
        blocks = [sorted(chosen[:cut]), sorted(chosen[cut:])]
        caps = [rng.randint(0, 1), rng.randint(0, 1)]
        if sum(caps) == 0:
            caps[0] = 1
        return {"kind": "partition", "blocks": blocks, "caps": caps}
    if kind == "graphic":
        v = 3  # triangle-scale graphs keep the rank at 2
        k = rng.randint(v - 1, min(len(rids), v + 1))
        chosen = rng.sample(rids, k)
        vertices = [f"v{j}" for j in range(v)]
        edges = []
        for j in range(1, v):
            edges.append([vertices[rng.randrange(j)], vertices[j], chosen[j - 1]])
        for extra in chosen[v - 1 :]:
            u, w = rng.sample(range(v), 2)
            edges.append([vertices[u], vertices[w], extra])
        return {"kind": "graphic", "edges": edges}
    raise ValueError(kind)


def _random_priorities(
    rng: random.Random, n: int, rids: list[str], levels: int, consistent: bool
) -> dict:
    def draw_map() -> list[int]:
        if levels == 1:
            return [1] * n
        for _ in range(20):
            row = [rng.randint(1, levels) for _ in range(n)]
            if n == 1 or len(set(row)) >= 2:
                return row
        return [1 + (i % levels) for i in range(n)]

    if consistent:
        return {"consistent": draw_map()}
    return {"per_resource": {rid: draw_map() for rid in rids}}


def _monotone_table(
    rng: random.Random, bound: int, max_delay: int
) -> tuple[dict[tuple[int, int], int], int]:
    """The monotone-completed bivariate table of the module docstring, as
    int numerators over ``scale = 4 ** (bound - 1)``; returns both.

    Row y = 1 holds integers.  A point of row y >= 2 adds k/4 of
    d(x + y - 1, 1) - lo to its floor lo, which lies in row y - 1 or row y;
    by induction a value of row y has a denominator dividing 4^(y - 1).
    Over the common scale, both numerators of that difference are multiples
    of 4 (row y = bound has only x = 0, whose floor lies in row bound - 1),
    so each step is exact integer arithmetic and draws the same random
    numbers, in the same order, as the rational construction.
    """
    scale = 4 ** (bound - 1)
    top = max_delay * scale
    row1 = [rng.randint(0, max(1, max_delay // 3)) * scale]
    for _ in range(1, bound):
        row1.append(min(top, row1[-1] + rng.choice([0, 0, 1, 1, 2]) * scale))
    values = {(x, 1): row1[x] for x in range(bound)}
    for y in range(2, bound + 1):
        for x in range(0, bound - y + 1):
            lo = values[(x, y - 1)]
            if x > 0:
                lo = max(lo, values[(x - 1, y)])
            values[(x, y)] = lo + (row1[x + y - 1] - lo) // 4 * rng.randint(0, 4)
    return values, scale


def _ratio(num: int, den: int) -> str:
    """``num/den`` in the wire form of :func:`format_fraction`, reduced by one gcd."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _random_table(rng: random.Random, bound: int, max_delay: int) -> dict:
    values, scale = _monotone_table(rng, bound, max_delay)
    entries = [[x, y, _ratio(values[x, y], scale)] for x, y in domain_points(bound)]
    return {"kind": "table", "bound": bound, "entries": entries}


def _random_classic(rng: random.Random, n: int, max_delay: int) -> dict:
    vals = [Fraction(rng.randint(0, max(1, max_delay // 3)))]
    for _ in range(1, n):
        vals.append(min(Fraction(max_delay), vals[-1] + Fraction(rng.choice([0, 1, 1, 2]))))
    return {"kind": "classic", "values": [format_fraction(v) for v in vals]}


def _random_affine(rng: random.Random) -> dict:
    alpha = Fraction(rng.randint(0, 6), 2)
    beta = Fraction(rng.randint(0, 8), 2)
    return {"kind": "affine", "alpha": format_fraction(alpha), "beta": format_fraction(beta)}


def _random_tritable(rng: random.Random, levels: int, bound: int, max_delay: int) -> dict:
    base, scale = _monotone_table(rng, bound, max_delay)
    offsets = []
    cur = 0
    for _ in range(levels):
        offsets.append(cur * scale)
        cur += rng.randint(0, 2)
    entries = [
        [l + 1, x, y, _ratio(base[x, y] + offsets[l], scale)]
        for l in range(levels)
        for x, y in domain_points(bound)
    ]
    return {"kind": "tritable", "levels": levels, "bound": bound, "entries": entries}

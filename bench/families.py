"""Seeded benchmark inputs, built as JSON bytes before anything is timed.

* :func:`desk_corpus`: generator instances at desk scale (n 3-8, m 2-6)
  over a fixed list of classes that covers every model and strategy-space
  kind, plus deliberately invalid documents for the reject path of
  ``pcg validate``.
* :func:`affine_document`: singleton games with shared affine delays past
  the generator's player cap, with per-resource or consistent priorities.

The same seed always gives the same bytes; the library only ever sees the
bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from prioritygames.costs import format_fraction
from prioritygames.generator import GenParams, generate_random_instance
from prioritygames.jsonio import parse_instance
from prioritygames.markets import MarketGame, reduce_market_to_playerspecific

# Brute force runs only where the profile count, the product of the
# players' strategy counts, is at most this.
BRUTE_CAP = 256

# (model, space kind, consistent priorities, player-specific delays).  Every
# class is a singleton game, where insertion finds an equilibrium, or has
# consistent priorities, where the layered construction does.  Better
# response converged on all of them on every seed tried; the desk workload
# caps its steps, so an instance that cycled would fail fast, not hang.
DESK_CLASSES = (
    ("priority", "singleton", False, False),
    ("priority", "singleton", True, False),
    ("priority", "singleton", False, True),
    ("priority", "singleton", True, True),
    ("priority", "explicit", True, False),
    ("priority", "uniform", True, False),
    ("priority", "partition", True, False),
    ("priority", "graphic", True, False),
    ("classic", "singleton", False, False),
    ("classic", "uniform", True, False),
    ("affine", "singleton", False, False),
    ("affine", "mixed", False, False),
    ("affine", "graphic", False, False),
    ("market", "singleton", False, False),
)
DESK_PER_CLASS = 10
DESK_REJECTS_PER_KIND = 2


def canonical_bytes(doc: dict) -> bytes:
    """The bytes ``pcg gen`` writes for a document."""
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode()


@dataclass(frozen=True)
class DeskInstance:
    name: str
    data: bytes
    methods: tuple[str, ...]  # solve methods applicable to the instance


@dataclass(frozen=True)
class DeskCorpus:
    instances: tuple[DeskInstance, ...]
    rejects: tuple[tuple[str, bytes], ...]  # (name, invalid document)


def _profile_count(instance) -> int:
    return math.prod(len(instance.spaces[p].all_bases()) for p in instance.players())


def desk_corpus(seed: int) -> DeskCorpus:
    """Sizes follow a fixed schedule, so every seed gets the same size mix;
    the seed draws the instances' contents."""
    instances = []
    for c, (model, space, consistent, specific) in enumerate(DESK_CLASSES):
        for k in range(DESK_PER_CLASS):
            idx = c * DESK_PER_CLASS + k
            rng = random.Random(f"desk:{seed}:{c}:{k}")
            params = GenParams(
                players=3 + idx % 6,
                resources=2 + idx % 5,
                model=model,
                space_kind=space,
                levels=2 + (c + k) % 2,
                consistent=consistent,
                player_specific=specific,
            )
            data = canonical_bytes(generate_random_instance(params, rng.randrange(2**31)))
            parsed = parse_instance(data)
            game = (
                reduce_market_to_playerspecific(parsed)
                if isinstance(parsed, MarketGame)
                else parsed
            )
            methods = ["br"]
            if game.is_singleton_game():
                methods.append("insertion")
            if game.priorities.consistent:
                methods.append("layered")
            if _profile_count(parsed) <= BRUTE_CAP:
                methods.append("brute")
            instances.append(
                DeskInstance(
                    name=f"c{c:02d}-{model}-{space}-{k}",
                    data=data,
                    methods=tuple(methods),
                )
            )
    return DeskCorpus(instances=tuple(instances), rejects=_rejects(seed))


def _rejects(seed: int) -> tuple[tuple[str, bytes], ...]:
    """Documents ``pcg validate`` must refuse with exit code 1."""
    out = []
    for k in range(DESK_REJECTS_PER_KIND):
        rng = random.Random(f"reject:{seed}:{k}")
        params = GenParams(
            players=rng.randint(3, 8), resources=rng.randint(2, 6), levels=rng.randint(2, 3)
        )
        doc = generate_random_instance(params, rng.randrange(2**31))
        unknown = dict(doc, comment="not a schema field")
        out.append((f"reject-unknown-field-{k}", canonical_bytes(unknown)))
        # d(0, 1) above every other value breaks monotonicity in x
        rid = rng.choice(doc["resources"])
        table = doc["delays"][rid]
        entries = [list(e) for e in table["entries"]]
        for e in entries:
            if e[0] == 0 and e[1] == 1:
                e[2] = "1000"
        broken = dict(doc, delays=dict(doc["delays"], **{rid: dict(table, entries=entries)}))
        out.append((f"reject-axiom-{k}", canonical_bytes(broken)))
    return tuple(out)


def affine_document(seed: int, n: int, m: int, *, consistent: bool, levels: int = 3) -> dict:
    """A singleton game with shared affine delays d(x, y) = a(x + (y+1)/2) + b.

    Every player may use 2-4 of the m resources.  Per-resource priorities
    draw each player's level 1..levels independently per resource and emit a
    ``priority`` document; consistent ones draw one level per player and
    emit an ``affine`` (shared-priority) document, which the parser reduces.
    """
    rng = random.Random(f"affine:{seed}:{n}:{m}:{consistent}")
    rids = [f"r{k:02d}" for k in range(m)]
    strategies = {
        str(i): {
            "kind": "singleton",
            "allowed": sorted(rng.sample(rids, rng.randint(2, min(4, m)))),
        }
        for i in range(1, n + 1)
    }
    delays = {
        rid: {
            "kind": "affine",
            "alpha": format_fraction(Fraction(rng.randint(1, 6), 2)),
            "beta": format_fraction(Fraction(rng.randint(0, 4))),
        }
        for rid in rids
    }
    if consistent:
        priorities = {"consistent": [rng.randint(1, levels) for _ in range(n)]}
    else:
        priorities = {
            "per_resource": {rid: [rng.randint(1, levels) for _ in range(n)] for rid in rids}
        }
    return {
        "version": 1,
        "model": "affine" if consistent else "priority",
        "players": n,
        "resources": rids,
        "strategies": strategies,
        "priorities": priorities,
        "delays": delays,
    }

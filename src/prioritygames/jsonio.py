"""Instance files: a strict, canonical JSON format for all four models.

Rationals are read as ``"p"`` or ``"p/q"`` strings of unsigned decimal
digits with ``q >= 1`` (see :func:`costs.parse_fraction`) and written as
gcd-reduced ``"p/q"``; ``"inf"`` is reserved for the infinite delay and
floats never appear.  Unknown fields are rejected.
Integer fields test ``type(v) is int``: JSON ``true``/``false`` load as
Python bools, which ``isinstance(v, int)`` would accept and emission would
write back as ``true``/``false``.
Emission is canonical (sorted keys, sorted id lists, two-space indent,
trailing newline), so ``parse -> emit`` is byte-identical on canonical
files and ``emit -> parse`` is the identity up to canonicalization.

Models: ``priority`` (the bivariate game, optionally player-specific),
``classic`` (univariate delays with acceptance priorities), ``affine``
(shared-priority affine delays), and ``market`` (trivariate two-sided
market).  Classic and affine documents parse into their source objects and
are reduced to priority games by :func:`parse_instance`.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Any, Union

from .core import (
    AffineDelay,
    ClassicDelay,
    MISSING_SHOWN,
    DelaySpec,
    Game,
    PerPlayerDelay,
    PriorityFunction,
    TableDelay,
    build_game,
)
from .costs import INFINITY, ExtCost, format_fraction, parse_fraction
from .errors import ParseError
from .markets import (
    AffineGame,
    ClassicGame,
    MarketGame,
    TriTable,
    build_affine_game,
    build_classic_game,
    build_market,
    reduce_affine_to_priority,
    reduce_classic_to_priority,
)
from .matroids import (
    ExplicitBasesSpace,
    ExplicitSpace,
    GraphicMatroid,
    PartitionMatroid,
    SingletonSpace,
    StrategySpace,
    UniformMatroid,
)

SCHEMA_VERSION = 1

# per model: the top-level fields it does not carry, then the fields it needs
_MODEL_FIELDS = {
    "priority": (("cost_matrix", "market_delays"), ("priorities",)),
    "classic": (("cost_matrix", "market_delays", "player_specific"), ("priorities",)),
    "affine": (("cost_matrix", "market_delays", "player_specific"), ("priorities",)),
    "market": (("priorities", "delays", "player_specific"), ("cost_matrix", "market_delays")),
}
MODELS = tuple(_MODEL_FIELDS)

SourceInstance = Union[Game, ClassicGame, AffineGame, MarketGame]


# ---------------------------------------------------------------------------
# Parsing


def parse_document(data: bytes | str) -> dict:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"instance file is not UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("instance file must hold a JSON object")
    return doc


def parse_instance(data: bytes | str) -> Game | MarketGame:
    """Parse and validate; classic/affine sources reduce to priority games."""
    source = document_to_source(parse_document(data))
    if isinstance(source, ClassicGame):
        return reduce_classic_to_priority(source)
    if isinstance(source, AffineGame):
        return reduce_affine_to_priority(source)
    return source


def document_to_source(doc: dict) -> SourceInstance:
    """Build the model's natural object from a parsed document.

    Cost strings repeat within a table and across tables (player-specific
    tables repeat one set of values per player), so one ``memo`` dict from
    cost string to :class:`ExtCost` lives for this call and reaches every
    :func:`_cost_value`: table and tritable entries and classic values.
    Reusing a kept value is exact, because ``ExtCost`` is immutable and a
    string always parses to the same value; a string that fails to parse
    is never kept, so the first bad cell raises with its own path.
    """
    _require_fields(
        doc,
        "instance",
        required=("version", "model", "players", "resources", "strategies"),
        optional=("priorities", "delays", "player_specific", "cost_matrix", "market_delays"),
    )
    if type(doc["version"]) is not int or doc["version"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {doc['version']!r}")
    model = doc["model"]
    if model not in MODELS:
        raise ParseError(f"unknown model {model!r}")
    n = doc["players"]
    if type(n) is not int or n < 1:
        raise ParseError(f"players must be a positive integer, got {n!r}")
    resources = doc["resources"]
    if (
        not isinstance(resources, list)
        or not resources
        or not all(isinstance(r, str) and r for r in resources)
    ):
        raise ParseError("resources must be a nonempty list of nonempty strings")
    if len(set(resources)) != len(resources):
        raise ParseError("resource ids repeat")
    spaces = _parse_spaces(doc["strategies"], n)
    forbidden, needed = _MODEL_FIELDS[model]
    for key in forbidden:
        if key in doc:
            raise ParseError(f"{model} instances do not carry {key!r}")
    for key in needed:
        if key not in doc:
            raise ParseError(f"{model} instances need {key!r}")

    memo: dict[str, ExtCost] = {}
    if model == "market":
        costs = _parse_cost_matrix(doc["cost_matrix"], n, resources)
        delays = _parse_market_delays(doc["market_delays"], resources, memo)
        return build_market(
            n_players=n, resources=resources, spaces=spaces, costs=costs, delays=delays
        )

    priorities = _parse_priorities(doc["priorities"], n, resources)

    if model == "classic":
        delays = _parse_delay_map(doc.get("delays"), resources, memo, only_kind="classic")
        values = {rid: spec.values for rid, spec in delays.items()}
        return build_classic_game(
            n_players=n,
            resources=resources,
            spaces=spaces,
            priorities=priorities,
            values=values,
        )

    if model == "affine":
        if not priorities.consistent:
            raise ParseError("affine instances need consistent priorities")
        delays = _parse_delay_map(doc.get("delays"), resources, memo, only_kind="affine")
        level_map = {}
        for i in range(1, n + 1):
            levels = {
                priorities.of(rid, i) for rid in resources if priorities.defined(rid, i)
            }
            if len(levels) != 1:
                raise ParseError(f"affine instances need a priority for every player ({i})")
            level_map[i] = levels.pop()
        params = {rid: (spec.alpha, spec.beta) for rid, spec in delays.items()}
        return build_affine_game(
            n_players=n,
            resources=resources,
            spaces=spaces,
            level_map=level_map,
            params=params,
        )

    # model == "priority"
    shared = _parse_delay_map(doc.get("delays"), resources, memo, allow_missing=True)
    per_player = _parse_player_specific(doc.get("player_specific"), n, resources, memo)
    delay_specs: dict[str, DelaySpec] = {}
    for rid in resources:
        per = {i: specs[rid] for i, specs in per_player.items() if rid in specs}
        if per:
            if rid in shared:
                raise ParseError(
                    f"resource {rid!r} appears in both 'delays' and 'player_specific'"
                )
            delay_specs[rid] = PerPlayerDelay(specs=per)
        elif rid in shared:
            delay_specs[rid] = shared[rid]
        else:
            raise ParseError(f"resource {rid!r} has no delay specification")
    return build_game(
        n_players=n,
        resources=resources,
        spaces=spaces,
        priorities=priorities,
        delays=delay_specs,
    )


def _require_fields(obj: Any, path: str, required=(), optional=()) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"{path}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ParseError(f"{path}: missing fields {sorted(missing)}")


def is_canonical_player_key(key: Any) -> bool:
    """An ASCII decimal string with no leading zero: the one way to name a player.

    "01" would name player 1 a second time, and ``int`` would read
    non-ASCII digits such as ARABIC-INDIC DIGIT ONE as player 1 too.
    """
    return isinstance(key, str) and key.isascii() and key.isdigit() and key == str(int(key))


def _player_key(key: str, n: int, path: str) -> int:
    if not is_canonical_player_key(key):
        raise ParseError(
            f"{path}: player key {key!r} is not canonical;"
            " player keys are decimal strings with no leading zero"
        )
    i = int(key)
    if not 1 <= i <= n:
        raise ParseError(f"{path}: player {i} out of range 1..{n}")
    return i


def _player_keyed(obj: Any, path: str, n: int):
    """(player id, key, value) for each entry of an object keyed by player ids."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    for key, value in obj.items():
        yield _player_key(key, n, path), key, value


def _resource_keyed(obj: Any, path: str, resources: list[str]) -> dict:
    """An object keyed by listed resource ids, returned as it is."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    unknown = set(obj) - set(resources)
    if unknown:
        raise ParseError(f"{path}: unknown resources {sorted(unknown)}")
    return obj


def _rational(text: Any, path: str) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(f"{path}: rationals are 'p/q' strings, got {text!r}")
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _cost_value(text: Any, memo: dict[str, ExtCost], where: str, k: int) -> ExtCost:
    """The cost at ``where[k]``, reusing ``memo``'s value for a string seen before.

    Only strings are looked up (a list or dict would not hash) and only
    parsed values are kept, so anything else, and every bad string, reaches
    the parse below and fails with its own path.  The path is formatted on
    a miss only.
    """
    if isinstance(text, str):
        known = memo.get(text)
        if known is not None:
            return known
    value = INFINITY if text == "inf" else ExtCost(_rational(text, f"{where}[{k}]"))
    memo[text] = value
    return value


def _parse_priorities(obj: Any, n: int, resources: list[str]) -> PriorityFunction:
    _require_fields(obj, "priorities", optional=("consistent", "per_resource"))
    if ("consistent" in obj) == ("per_resource" in obj):
        raise ParseError("priorities need exactly one of 'consistent' or 'per_resource'")

    def read_row(row: Any, path: str) -> dict[int, int]:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{path}: expected {n} entries")
        out = {}
        for idx, v in enumerate(row):
            if v is None:
                continue
            if type(v) is not int or v < 1:
                raise ParseError(f"{path}[{idx}]: priorities are integers >= 1 or null")
            out[idx + 1] = v
        return out

    if "consistent" in obj:
        row = read_row(obj["consistent"], "priorities.consistent")
        return PriorityFunction.uniform(resources, row)
    table = _resource_keyed(obj["per_resource"], "priorities.per_resource", resources)
    maps = {
        rid: read_row(table.get(rid, [None] * n), f"priorities.per_resource.{rid}")
        for rid in resources
    }
    return PriorityFunction(maps)


def _parse_spaces(obj: Any, n: int) -> dict[int, StrategySpace]:
    out = {
        i: _parse_space(spec, f"strategies.{key}")
        for i, key, spec in _player_keyed(obj, "strategies", n)
    }
    missing = n - len(out)  # keys are canonical, so each names its own player
    if missing:
        # list a few: a short document may claim any number of players
        shown = list(itertools.islice((i for i in range(1, n + 1) if i not in out), MISSING_SHOWN))
        more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
        raise ParseError(f"strategies: missing players {shown}{more}")
    return out


def _id_list(obj: Any, path: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(r, str) and r for r in obj):
        raise ParseError(f"{path}: expected a list of resource ids")
    return obj


def _parse_space(spec: Any, path: str) -> StrategySpace:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"{path}: expected an object with a 'kind'")
    kind = spec["kind"]
    if kind == "singleton":
        _require_fields(spec, path, required=("kind", "allowed"))
        return SingletonSpace(_id_list(spec["allowed"], f"{path}.allowed"))
    if kind == "explicit":
        _require_fields(spec, path, required=("kind", "sets"))
        if not isinstance(spec["sets"], list):
            raise ParseError(f"{path}.sets: expected a list of sets")
        return ExplicitSpace([_id_list(s, f"{path}.sets") for s in spec["sets"]])
    if kind == "uniform":
        _require_fields(spec, path, required=("kind", "ground", "rank"))
        if type(spec["rank"]) is not int:
            raise ParseError(f"{path}.rank: expected an integer")
        return UniformMatroid(_id_list(spec["ground"], f"{path}.ground"), spec["rank"])
    if kind == "partition":
        _require_fields(spec, path, required=("kind", "blocks", "caps"))
        if not isinstance(spec["blocks"], list) or not isinstance(spec["caps"], list):
            raise ParseError(f"{path}: blocks and caps must be lists")
        if not all(type(c) is int for c in spec["caps"]):
            raise ParseError(f"{path}.caps: expected integers")
        blocks = [_id_list(b, f"{path}.blocks") for b in spec["blocks"]]
        return PartitionMatroid(blocks, spec["caps"])
    if kind == "graphic":
        _require_fields(spec, path, required=("kind", "edges"))
        edges = spec["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 3 and all(isinstance(p, str) for p in e)
            for e in edges
        ):
            raise ParseError(f"{path}.edges: expected [vertex, vertex, resource] triples")
        return GraphicMatroid([tuple(e) for e in edges])
    if kind == "explicit_bases":
        _require_fields(spec, path, required=("kind", "bases"))
        if not isinstance(spec["bases"], list):
            raise ParseError(f"{path}.bases: expected a list of bases")
        return ExplicitBasesSpace([_id_list(b, f"{path}.bases") for b in spec["bases"]])
    raise ParseError(f"{path}: unknown strategy kind {kind!r}")


def _parse_delay(spec: Any, path: str, memo: dict[str, ExtCost]) -> DelaySpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"{path}: expected an object with a 'kind'")
    kind = spec["kind"]
    if kind == "table":
        _require_fields(spec, path, required=("kind", "bound", "entries"))
        bound = spec["bound"]
        if type(bound) is not int or bound < 2:
            raise ParseError(f"{path}.bound: expected an integer >= 2")
        entries = {}
        if not isinstance(spec["entries"], list):
            raise ParseError(f"{path}.entries: expected a list")
        where = f"{path}.entries"
        for k, row in enumerate(spec["entries"]):
            if not (isinstance(row, list) and len(row) == 3):
                raise ParseError(f"{path}.entries[{k}]: expected [x, y, value]")
            x, y, val = row
            if not (type(x) is int and type(y) is int) or x < 0 or y < 1:
                raise ParseError(f"{path}.entries[{k}]: x >= 0 and y >= 1 required")
            if (x, y) in entries:
                raise ParseError(f"{path}.entries[{k}]: duplicate point ({x}, {y})")
            entries[(x, y)] = _cost_value(val, memo, where, k)
        return TableDelay(entries=entries, bound=bound)
    if kind == "affine":
        _require_fields(spec, path, required=("kind", "alpha", "beta"))
        return AffineDelay(
            alpha=_rational(spec["alpha"], f"{path}.alpha"),
            beta=_rational(spec["beta"], f"{path}.beta"),
        )
    if kind == "classic":
        _require_fields(spec, path, required=("kind", "values"))
        if not isinstance(spec["values"], list) or not spec["values"]:
            raise ParseError(f"{path}.values: expected a nonempty list")
        where = f"{path}.values"
        values = tuple(_cost_value(v, memo, where, k) for k, v in enumerate(spec["values"]))
        return ClassicDelay(values=values)
    raise ParseError(f"{path}: unknown delay kind {kind!r}")


def _parse_delay_map(
    obj: Any,
    resources: list[str],
    memo: dict[str, ExtCost],
    *,
    only_kind: str | None = None,
    allow_missing: bool = False,
):
    if obj is None:
        if allow_missing:
            return {}
        raise ParseError("missing 'delays'")
    out = {}
    for rid, spec in _resource_keyed(obj, "delays", resources).items():
        parsed = _parse_delay(spec, f"delays.{rid}", memo)
        if only_kind and parsed.kind != only_kind:
            raise ParseError(f"delays.{rid}: this model needs kind {only_kind!r}")
        out[rid] = parsed
    if only_kind and set(out) != set(resources):
        raise ParseError("delays: every resource needs a specification")
    return out


def _parse_player_specific(
    obj: Any, n: int, resources: list[str], memo: dict[str, ExtCost]
) -> dict[int, dict[str, DelaySpec]]:
    if obj is None:
        return {}
    return {
        i: {
            rid: _parse_delay(spec, f"player_specific.{key}.{rid}", memo)
            for rid, spec in _resource_keyed(rmap, f"player_specific.{key}", resources).items()
        }
        for i, key, rmap in _player_keyed(obj, "player_specific", n)
    }


def _parse_cost_matrix(obj: Any, n: int, resources: list[str]) -> dict[tuple[int, str], Fraction]:
    return {
        (i, rid): _rational(val, f"cost_matrix.{key}.{rid}")
        for i, key, rmap in _player_keyed(obj, "cost_matrix", n)
        for rid, val in _resource_keyed(rmap, f"cost_matrix.{key}", resources).items()
    }


def _parse_market_delays(
    obj: Any, resources: list[str], memo: dict[str, ExtCost]
) -> dict[str, TriTable]:
    out = {}
    for rid, spec in _resource_keyed(obj, "market_delays", resources).items():
        path = f"market_delays.{rid}"
        _require_fields(spec, path, required=("kind", "levels", "bound", "entries"))
        if spec["kind"] != "tritable":
            raise ParseError(f"{path}: unknown delay kind {spec['kind']!r}")
        levels, bound = spec["levels"], spec["bound"]
        if type(levels) is not int or levels < 0:
            raise ParseError(f"{path}.levels: expected an integer >= 0")
        if type(bound) is not int or bound < 2:
            raise ParseError(f"{path}.bound: expected an integer >= 2")
        if not isinstance(spec["entries"], list):
            raise ParseError(f"{path}.entries: expected a list")
        entries = {}
        where = f"{path}.entries"
        for k, row in enumerate(spec["entries"]):
            if not (isinstance(row, list) and len(row) == 4):
                raise ParseError(f"{path}.entries[{k}]: expected [level, x, y, value]")
            l, x, y, val = row
            if not all(type(v) is int for v in (l, x, y)) or l < 1 or x < 0 or y < 1:
                raise ParseError(f"{path}.entries[{k}]: bad coordinates")
            if (l, x, y) in entries:
                raise ParseError(f"{path}.entries[{k}]: duplicate point")
            entries[(l, x, y)] = _cost_value(val, memo, where, k)
        out[rid] = TriTable(levels=levels, bound=bound, entries=entries)
    return out


# ---------------------------------------------------------------------------
# Emission


def emit_instance(obj: SourceInstance) -> bytes:
    """Canonical bytes for an instance (sorted keys, reduced rationals)."""
    doc = instance_to_document(obj)
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def instance_to_document(obj: SourceInstance) -> dict:
    if isinstance(obj, Game):
        return _game_document(obj)
    if isinstance(obj, ClassicGame):
        return _classic_document(obj)
    if isinstance(obj, AffineGame):
        return _affine_document(obj)
    if isinstance(obj, MarketGame):
        return _market_document(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _priorities_document(priorities: PriorityFunction, n: int, resources) -> dict:
    def row(rid: str) -> list:
        return [
            priorities.of(rid, i) if priorities.defined(rid, i) else None
            for i in range(1, n + 1)
        ]

    if priorities.consistent:
        return {"consistent": row(resources[0])}
    return {"per_resource": {rid: row(rid) for rid in resources}}


def _space_document(space: StrategySpace) -> dict:
    if isinstance(space, SingletonSpace):
        return {"kind": "singleton", "allowed": sorted(space.ground())}
    if isinstance(space, ExplicitSpace):
        return {"kind": "explicit", "sets": [sorted(s) for s in space.all_bases()]}
    if isinstance(space, UniformMatroid):
        return {"kind": "uniform", "ground": sorted(space.ground()), "rank": space.rank()}
    if isinstance(space, PartitionMatroid):
        pairs = sorted(
            zip((sorted(b) for b in space._blocks), space._caps), key=lambda p: p[0]
        )
        return {
            "kind": "partition",
            "blocks": [b for b, _ in pairs],
            "caps": [c for _, c in pairs],
        }
    if isinstance(space, GraphicMatroid):
        return {"kind": "graphic", "edges": [list(e) for e in sorted(space.edges(), key=lambda e: e[2])]}
    if isinstance(space, ExplicitBasesSpace):
        return {"kind": "explicit_bases", "bases": [sorted(b) for b in space.all_bases()]}
    raise TypeError(f"cannot serialize space {type(space).__name__}")


def _delay_document(spec: DelaySpec) -> dict:
    if isinstance(spec, TableDelay):
        entries = [
            [x, y, spec.entries[(x, y)].to_string()]
            for (x, y) in sorted(spec.entries)
        ]
        return {"kind": "table", "bound": spec.bound, "entries": entries}
    if isinstance(spec, AffineDelay):
        return {
            "kind": "affine",
            "alpha": format_fraction(spec.alpha),
            "beta": format_fraction(spec.beta),
        }
    if isinstance(spec, ClassicDelay):
        return {"kind": "classic", "values": [v.to_string() for v in spec.values]}
    raise TypeError(f"cannot serialize delay {type(spec).__name__}")


def _base_document(obj, model: str) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "model": model,
        "players": obj.n_players,
        "resources": sorted(obj.resources),
        "strategies": {
            str(i): _space_document(sp) for i, sp in sorted(obj.spaces.items())
        },
    }


def _game_document(game: Game) -> dict:
    doc = _base_document(game, "priority")
    doc["priorities"] = _priorities_document(game.priorities, game.n_players, sorted(game.resources))
    shared: dict[str, dict] = {}
    per_player: dict[str, dict[str, dict]] = {}
    for rid in sorted(game.resources):
        spec = game.delays[rid]
        if isinstance(spec, PerPlayerDelay):
            for i, sub in sorted(spec.specs.items()):
                per_player.setdefault(str(i), {})[rid] = _delay_document(sub)
        else:
            shared[rid] = _delay_document(spec)
    if shared:
        doc["delays"] = shared
    if per_player:
        doc["player_specific"] = per_player
    return doc


def _classic_document(cg: ClassicGame) -> dict:
    doc = _base_document(cg, "classic")
    doc["priorities"] = _priorities_document(cg.priorities, cg.n_players, sorted(cg.resources))
    doc["delays"] = {
        rid: _delay_document(ClassicDelay(cg.values[rid])) for rid in sorted(cg.resources)
    }
    return doc


def _affine_document(ag: AffineGame) -> dict:
    doc = _base_document(ag, "affine")
    doc["priorities"] = {
        "consistent": [ag.level_map[i] for i in range(1, ag.n_players + 1)]
    }
    doc["delays"] = {
        rid: _delay_document(AffineDelay(a, b)) for rid, (a, b) in sorted(ag.params.items())
    }
    return doc


def _market_document(market: MarketGame) -> dict:
    doc = _base_document(market, "market")
    matrix: dict[str, dict[str, str]] = {}
    for (i, rid), c in sorted(market.costs.items()):
        matrix.setdefault(str(i), {})[rid] = format_fraction(c)
    doc["cost_matrix"] = matrix
    doc["market_delays"] = {
        rid: {
            "kind": "tritable",
            "levels": tri.levels,
            "bound": tri.bound,
            "entries": [
                [l, x, y, tri.entries[(l, x, y)].to_string()]
                for (l, x, y) in sorted(tri.entries)
            ],
        }
        for rid, tri in sorted(market.delays.items())
    }
    return doc

import json
import random
import re
from fractions import Fraction
from types import MappingProxyType

import pytest

import prioritygames as pg
from conftest import gen_game
from prioritygames.cli import cli_main
from prioritygames.costs import ZERO, format_fraction
from prioritygames.generator import SPACE_KINDS
from prioritygames.matroids import base_weight, singleton_resources


def w(**kw):
    return {k: pg.cost(v) for k, v in kw.items()}


class TestIsBase:
    def test_uniform(self):
        space = pg.UniformMatroid(["a", "b", "c"], 2)
        assert space.is_base(frozenset({"a", "c"}))
        assert not space.is_base(frozenset({"a"}))

    def test_explicit_bases_membership(self):
        space = pg.ExplicitBasesSpace([{"a", "b"}, {"b", "c"}])
        assert not space.is_base(frozenset({"a", "c"}))
        assert space.is_base(frozenset({"a", "b"}))

    def test_graphic_spanning_trees(self):
        tri = pg.GraphicMatroid([("A", "B", "ab"), ("B", "C", "bc"), ("C", "A", "ca")])
        assert tri.rank() == 2
        assert sorted(map(sorted, tri.all_bases())) == [
            ["ab", "bc"],
            ["ab", "ca"],
            ["bc", "ca"],
        ]

    def test_exchange_axiom_enforced_at_build(self):
        with pytest.raises(pg.ValidationFailed):
            pg.ExplicitBasesSpace([{"a", "b"}, {"c", "d"}])
        with pytest.raises(pg.ValidationFailed):
            pg.ExplicitBasesSpace([{"a"}, {"b", "c"}])

    def test_graphic_desk_scale_edge_limit(self):
        edges = [("A", "B", f"r{k}") for k in range(13)]
        with pytest.raises(pg.ValidationFailed):
            pg.GraphicMatroid(edges)


class TestGreedy:
    def test_uniform_two_smallest(self):
        space = pg.UniformMatroid(["a", "b", "c"], 2)
        assert pg.greedy_min_base(space, w(a=3, b=1, c=2)) == {"b", "c"}

    def test_explicit_bases(self):
        space = pg.ExplicitBasesSpace([{"a", "b"}, {"b", "c"}])
        assert pg.greedy_min_base(space, w(a=1, b=1, c=5)) == {"a", "b"}

    def test_equal_weights_lexicographic(self):
        for space in (
            pg.UniformMatroid(["a", "b", "c", "d"], 2),
            pg.ExplicitBasesSpace([{"b", "d"}, {"a", "b"}, {"b", "c"}]),
            pg.SingletonSpace(["c", "a", "b"]),
        ):
            got = pg.greedy_min_base(space, {r: pg.cost(7) for r in space.ground()})
            want = min(space.all_bases(), key=lambda b: tuple(sorted(b)))
            assert got == want

    def test_infinite_weights_ok(self):
        space = pg.UniformMatroid(["a", "b", "c"], 2)
        weights = {"a": pg.INFINITY, "b": pg.cost(1), "c": pg.cost(2)}
        assert pg.greedy_min_base(space, weights) == {"b", "c"}


def random_space(rng):
    kind = rng.choice(["uniform", "partition", "graphic", "explicit_bases", "singleton"])
    ids = list("abcdef")[: rng.randint(2, 6)]
    if kind == "singleton":
        return pg.SingletonSpace(ids)
    if kind == "uniform":
        return pg.UniformMatroid(ids, rng.randint(1, min(3, len(ids))))
    if kind == "partition":
        cut = rng.randint(1, len(ids) - 1)
        blocks = [ids[:cut], ids[cut:]]
        caps = [rng.randint(0, 1), rng.randint(0, 1)]
        if sum(caps) == 0:
            caps[0] = 1
        return pg.PartitionMatroid(blocks, caps)
    if kind == "graphic":
        v = rng.randint(3, 4)
        if len(ids) < v - 1:
            return pg.UniformMatroid(ids, 1)
        edges = []
        verts = [f"v{j}" for j in range(v)]
        for j in range(1, v):
            edges.append((verts[rng.randrange(j)], verts[j], ids[j - 1]))
        for extra in ids[v - 1 :]:
            u, t = rng.sample(range(v), 2)
            edges.append((verts[u], verts[t], extra))
        return pg.GraphicMatroid(edges)
    pool = pg.UniformMatroid(ids, 2).all_bases()
    take = rng.randint(1, len(pool))
    try:
        return pg.ExplicitBasesSpace(rng.sample(pool, take))
    except pg.ValidationFailed:
        return pg.UniformMatroid(ids, 2)


def test_greedy_matches_enumeration_randomized():
    rng = random.Random(20240817)
    for _ in range(300):
        space = random_space(rng)
        weights = {r: pg.cost(rng.randint(0, 9)) for r in space.ground()}
        got = pg.greedy_min_base(space, weights)
        best = min(base_weight(b, weights) for b in space.all_bases())
        assert base_weight(got, weights) == best


def sorted_scan_greedy(space, weights):
    """The generic greedy, kept as the reference: scan the ground by
    (weight, id) and keep each element that stays independent; explicit
    families are enumerated, ties to the smallest sorted id list."""
    if not space.matroid:
        return min(space.all_bases(), key=lambda b: (base_weight(b, weights), sorted(b)))
    chosen = set()
    for r in sorted(space.ground(), key=lambda r: (weights[r], r)):
        if len(chosen) < space.rank() and space.is_independent(frozenset(chosen | {r})):
            chosen.add(r)
    return frozenset(chosen)


def rank_one_spaces(rng):
    """Every rank-1 kind over a random id set; the explicit family is the
    non-matroid (enumeration) path."""
    ids = rng.sample("abcdefgh", rng.randint(2, 8))
    live = ids[: rng.randint(1, len(ids) - 1)]
    yield pg.SingletonSpace(ids)
    yield pg.UniformMatroid(ids, 1)
    yield pg.PartitionMatroid([live, ids[len(live) :]], [1, 0])  # a zero-cap block
    yield pg.GraphicMatroid([("u", "v", r) for r in ids])  # parallel edges
    yield pg.ExplicitBasesSpace([[r] for r in live])
    yield pg.ExplicitSpace([[r] for r in live])


def test_rank_one_greedy_returns_the_sorted_scan_base():
    """Not just an equally cheap base: the same one, under ties and +inf."""
    rng = random.Random(20261020)
    kinds, tied, all_infinite = set(), 0, 0
    choices = [pg.cost(0), pg.cost(1), pg.cost(Fraction(3, 2)), pg.INFINITY]
    for _ in range(200):
        for space in rank_one_spaces(rng):
            assert space.rank() == 1
            weights = {r: rng.choice(choices) for r in space.ground()}
            got = pg.greedy_min_base(space, weights)
            assert got == sorted_scan_greedy(space, weights)
            kinds.add(space.kind)
            live = [weights[r] for r in singleton_resources(space)]
            tied += live.count(min(live)) > 1
            all_infinite += all(not c.is_finite for c in live)
    assert kinds == {"singleton", "uniform", "partition", "graphic", "explicit_bases", "explicit"}
    assert tied > 100 and all_infinite > 10


def missing_weight_cases():
    """Every space kind, each with the ground elements its weights leave out.
    The partition's are the dead elements of its zero-cap block, which its
    rank-1 pass never reads."""
    yield pg.SingletonSpace(["a", "b", "c"]), {"b"}
    yield pg.UniformMatroid(["a", "b", "c"], 1), {"a", "c"}
    yield pg.UniformMatroid(["a", "b", "c", "d"], 2), {"d"}
    yield pg.PartitionMatroid([["a", "b"], ["y", "z"]], [1, 0]), {"y", "z"}
    yield pg.GraphicMatroid([("A", "B", "ab"), ("B", "C", "bc"), ("C", "A", "ca")]), {"ca"}
    yield pg.ExplicitBasesSpace([{"a", "b"}, {"b", "c"}]), {"a"}
    yield pg.ExplicitSpace([{"a"}, {"b", "c"}]), {"c"}


@pytest.mark.parametrize("mapping", [dict, MappingProxyType])
def test_greedy_names_the_resources_its_weights_lack(mapping):
    kinds = set()
    for space, missing in missing_weight_cases():
        weights = mapping({r: pg.cost(1) for r in space.ground() - missing})
        with pytest.raises(ValueError, match=re.escape(f"weights missing for {sorted(missing)}")):
            pg.greedy_min_base(space, weights)
        full = mapping({r: pg.cost(1) for r in space.ground() | {"extra"}})
        assert space.is_base(pg.greedy_min_base(space, full))
        kinds.add((space.kind, space.rank() == 1))
    assert len(kinds) == 7


class TestLazyPath:
    def test_single_swap(self):
        space = pg.UniformMatroid(["a", "b", "c"], 2)
        path = pg.lazy_path(space, {"a", "b"}, {"b", "c"}, w(a=3, b=1, c=1))
        assert path == [frozenset({"a", "b"}), frozenset({"b", "c"})]

    def test_not_improving(self):
        space = pg.UniformMatroid(["a", "b", "c"], 2)
        with pytest.raises(pg.NotImprovingError):
            pg.lazy_path(space, {"b", "c"}, {"a", "b"}, w(a=3, b=1, c=1))

    def test_partition_two_swaps(self):
        space = pg.PartitionMatroid([["a", "b"], ["c", "d"]], [1, 1])
        weights = w(a=5, b=1, c=5, d=1)
        path = pg.lazy_path(space, {"a", "c"}, {"b", "d"}, weights)
        totals = [base_weight(b, weights) for b in path]
        assert [t.to_string() for t in totals] == ["10/1", "6/1", "2/1"]

    def test_properties_randomized(self):
        rng = random.Random(77)
        checked = 0
        while checked < 120:
            space = random_space(rng)
            bases = space.all_bases()
            if len(bases) < 2:
                continue
            weights = {r: pg.cost(rng.randint(0, 9)) for r in space.ground()}
            start, goal = rng.sample(bases, 2)
            if not base_weight(goal, weights) < base_weight(start, weights):
                continue
            path = pg.lazy_path(space, start, goal, weights)
            assert path[0] == start
            assert base_weight(path[-1], weights) <= base_weight(goal, weights)
            for a, b in zip(path, path[1:]):
                assert space.is_base(b)
                assert len(a - b) == 1 and len(b - a) == 1
                assert base_weight(b, weights) < base_weight(a, weights)
            checked += 1


def test_singleton_equals_uniform_rank_one():
    singleton = pg.SingletonSpace(["a", "b", "c"])
    uniform = pg.UniformMatroid(["a", "b", "c"], 1)
    assert singleton.all_bases() == uniform.all_bases()
    assert singleton.rank() == uniform.rank()
    weights = w(a=2, b=9, c=2)
    assert pg.greedy_min_base(singleton, weights) == pg.greedy_min_base(uniform, weights)
    assert singleton.is_singleton_space() and uniform.is_singleton_space()


# ---------------------------------------------------------------------------
# Spaces answer through ground, rank and oracle: the rules that let them
# skip listing bases, and a guard that parse, solve and certify list none.


@pytest.mark.parametrize(
    "build, code",
    [
        (lambda: pg.SingletonSpace([]), "EMPTY_SPACE"),
        (lambda: pg.ExplicitSpace([]), "EMPTY_SPACE"),
        (lambda: pg.ExplicitBasesSpace([]), "EMPTY_SPACE"),
        (lambda: pg.UniformMatroid(["a", "b"], 0), "BAD_RANK"),
        (lambda: pg.UniformMatroid([], 1), "BAD_RANK"),
        (lambda: pg.PartitionMatroid([["a", "b"], ["c"]], [0, 0]), "EMPTY_SPACE"),
        (lambda: pg.GraphicMatroid([]), "BAD_GRAPH"),
        (lambda: pg.GraphicMatroid([("u", "v", "x"), ("w", "z", "y")]), "BAD_GRAPH"),
        (lambda: pg.GraphicMatroid([("u", "u", "x")]), "BAD_GRAPH"),
    ],
    ids=["singleton", "explicit", "explicit_bases", "uniform-rank-0", "uniform-no-ground",
         "partition-caps-0", "graphic-no-edges", "graphic-disconnected", "graphic-one-vertex"],
)
def test_constructors_refuse_empty_spaces(build, code):
    with pytest.raises(pg.ValidationFailed) as info:
        build()
    assert [v.code for v in info.value.violations] == [code]


@pytest.mark.parametrize("bases", [[[]], [[], []]])
def test_explicit_bases_refuse_an_empty_base(bases):
    """A rank-0 family is refused as ExplicitSpace refuses an empty strategy."""
    with pytest.raises(pg.ValidationFailed) as info:
        pg.ExplicitBasesSpace(bases)
    assert [v.code for v in info.value.violations] == ["EMPTY_STRATEGY"]


def _sweep_spaces():
    for kind in SPACE_KINDS:
        for seed in range(4):
            game = gen_game(seed, players=4, resources=5, space_kind=kind)
            yield from game.spaces.values()
    rng = random.Random(19)
    yield from (random_space(rng) for _ in range(40))
    yield pg.PartitionMatroid([["a", "b"], ["c"]], [1, 0])  # rank 1, a dead element
    yield pg.GraphicMatroid([("u", "v", "x"), ("u", "v", "y"), ("v", "u", "z")])
    yield pg.ExplicitSpace([["a"], ["b", "c"]])


def test_oracle_answers_match_enumeration():
    kinds = set()
    for sp in _sweep_spaces():
        kinds.add(sp.kind)
        bases = sp.all_bases()
        assert singleton_resources(sp) == {r for r in sp.ground() if frozenset({r}) in bases}
        assert sp.is_singleton_space() == all(len(b) == 1 for b in bases)
        assert pg.greedy_min_base(sp, dict.fromkeys(sp.ground(), ZERO)) == bases[0]
    assert kinds == {"singleton", "explicit", "uniform", "partition", "graphic", "explicit_bases"}


def _matroid_document(kind: str, n: int, seed: int) -> dict:
    """A consistent affine game whose players hold wide uniform or partition spaces."""
    rng = random.Random(seed)
    rids = [f"r{k:02d}" for k in range(24)]

    def space() -> dict:
        ground = sorted(rng.sample(rids, 16))
        if kind == "uniform":
            return {"kind": "uniform", "ground": ground, "rank": 8}
        blocks = [ground[k : k + 4] for k in range(0, 16, 4)]
        return {"kind": "partition", "blocks": blocks, "caps": [rng.randint(1, 3) for _ in blocks]}

    strategies = {str(i): space() for i in range(1, n + 1)}
    delays = {
        rid: {
            "kind": "affine",
            "alpha": format_fraction(Fraction(rng.randint(1, 5), rng.randint(1, 3))),
            "beta": f"{rng.randint(0, 4)}",
        }
        for rid in rids
    }
    return {
        "version": 1,
        "model": "affine",
        "players": n,
        "resources": rids,
        "strategies": strategies,
        "priorities": {"consistent": [rng.randint(1, 3) for _ in range(n)]},
        "delays": delays,
    }


@pytest.mark.parametrize("kind", ["uniform", "partition"])
def test_parse_solve_and_certify_list_no_bases(kind, tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self.kind} space listed its bases")

    monkeypatch.setattr(pg.UniformMatroid, "all_bases", refuse)
    monkeypatch.setattr(pg.PartitionMatroid, "all_bases", refuse)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_matroid_document(kind, 12, seed=3)))
    game = pg.parse_instance(path.read_text())
    assert {sp.kind for sp in game.spaces.values()} == {kind}
    for method in ("layered", "br"):
        trace = tmp_path / f"{method}.csv"
        argv = ["solve", str(path), "--method", method, "--json", "--trace", str(trace)]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pne"] is True
        assert cli_main(["verify", str(path), "--trace", str(trace)]) == 0
        assert "no violations" in capsys.readouterr().out

import random

import pytest

import prioritygames as pg
from prioritygames.matroids import base_weight


def w(**kw):
    return {k: pg.cost(v) for k, v in kw.items()}


class TestIsBase:
    def test_uniform(self):
        space = pg.UniformMatroid(["a", "b", "c"], 2)
        assert pg.is_base(space, {"a", "c"})
        assert not pg.is_base(space, {"a"})

    def test_explicit_bases_membership(self):
        space = pg.ExplicitBasesSpace([{"a", "b"}, {"b", "c"}])
        assert not pg.is_base(space, {"a", "c"})
        assert pg.is_base(space, {"a", "b"})

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

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prioritygames as pg
from conftest import all_profiles, alternatives, gen_game, gen_source
from prioritygames.potentials import EQUAL, GREATER, LESS, _lex_vector, _tolerance_count
from test_kernel import naive_tol


def pairs(*items):
    return tuple((pg.cost(c), q) for c, q in items)


class TestLexPotential:
    def test_t1_shared(self, t1):
        vec = pg.lex_potential_singleton(t1, pg.profile({1: "a", 2: "a"}))
        assert vec.pairs == pairs((1, 1), (3, 2))

    def test_t1_split(self, t1):
        vec = pg.lex_potential_singleton(t1, pg.profile({1: "a", 2: "b"}))
        assert vec.pairs == pairs((1, 1), (1, 1))

    def test_same_level_pair(self):
        game = pg.build_game(
            n_players=2,
            resources=["e"],
            spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
            priorities=pg.PriorityFunction({"e": {1: 4, 2: 4}}),
            delays={"e": pg.table_from_function(lambda x, y: x + y, 3)},
        )
        vec = pg.lex_potential_singleton(game, pg.profile({1: "e", 2: "e"}))
        assert vec.pairs == pairs((1, 4), (2, 4))

    def test_rejects_non_singleton(self):
        game = pg.build_game(
            n_players=1,
            resources=["a", "b"],
            spaces={1: pg.UniformMatroid(["a", "b"], 2)},
            priorities=pg.PriorityFunction({"a": {1: 1}, "b": {1: 1}}),
            delays={r: pg.table_from_function(lambda x, y: x + y, 2) for r in ("a", "b")},
        )
        prof = next(all_profiles(game))
        with pytest.raises(pg.NotSingletonError):
            pg.lex_potential_singleton(game, prof)

    def test_rejects_player_specific(self):
        game = gen_game(12, players=2, resources=2, space_kind="singleton", player_specific=True)
        prof = next(all_profiles(game))
        with pytest.raises(pg.PlayerSpecificInputError):
            pg.lex_potential_singleton(game, prof)


class TestLexCompare:
    def test_examples(self):
        a = pg.LexVector(pairs((1, 1), (1, 1)))
        b = pg.LexVector(pairs((1, 1), (3, 2)))
        assert pg.lex_compare(a, b) == LESS
        assert pg.lex_compare(b, a) == GREATER
        assert pg.lex_compare(a, a) == EQUAL

    def test_level_breaks_cost_ties(self):
        assert pg.lex_compare(pg.LexVector(pairs((2, 1))), pg.LexVector(pairs((2, 3)))) == LESS

    def test_length_mismatch(self):
        with pytest.raises(pg.LengthMismatchError):
            pg.lex_compare(pg.LexVector(pairs((1, 1))), pg.LexVector(pairs((1, 1), (1, 1))))

    def test_infinity_entries_compare_maximal(self):
        inf_pair = pg.LexVector(((pg.INFINITY, 1),))
        assert pg.lex_compare(pg.LexVector(pairs((5, 9))), inf_pair) == LESS

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=4
        ),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=4
        ),
    )
    def test_antisymmetric(self, raw_a, raw_b):
        if len(raw_a) != len(raw_b):
            return
        a = pg.LexVector(tuple((pg.cost(c), q) for c, q in sorted(raw_a)))
        b = pg.LexVector(tuple((pg.cost(c), q) for c, q in sorted(raw_b)))
        assert pg.lex_compare(a, b) == -pg.lex_compare(b, a)


def test_better_response_decreases_lex_potential_small_sweep():
    checked = 0
    for seed in range(12):
        game = gen_game(1000 + seed, players=3, resources=3, space_kind="singleton", levels=3)
        for prof in all_profiles(game):
            before = pg.lex_potential_singleton(game, prof)
            for p in game.players():
                for alt in alternatives(game, prof, p):
                    moved = prof.with_player(p, alt)
                    if pg.player_cost(game, moved, p) < pg.player_cost(game, prof, p):
                        after = pg.lex_potential_singleton(game, moved)
                        assert pg.lex_compare(after, before) == LESS
                        checked += 1
    assert checked > 50


def test_lex_potential_with_infinite_entries():
    """Wrapped classical delays put infinity pairs into the vector."""
    game = pg.build_game(
        n_players=2,
        resources=["e", "f"],
        spaces={1: pg.SingletonSpace(["e", "f"]), 2: pg.SingletonSpace(["e", "f"])},
        priorities=pg.PriorityFunction({"e": {1: 1, 2: 2}, "f": {1: 2, 2: 1}}),
        delays={
            r: pg.ClassicDelay(values=(pg.cost(2), pg.cost(5))) for r in ("e", "f")
        },
    )
    both = pg.profile({1: "e", 2: "e"})
    vec = pg.lex_potential_singleton(game, both)
    assert vec.pairs == ((pg.cost(2), 1), (pg.INFINITY, 2))
    # the trapped player escaping is a better response; the potential drops
    split = pg.profile({1: "e", 2: "f"})
    assert pg.player_cost(game, split, 2) < pg.player_cost(game, both, 2)
    assert pg.lex_compare(pg.lex_potential_singleton(game, split), vec) == LESS


# Denominators mix small values with large coprime ones (primes and powers
# of 2 and 3), so the shared denominator of a vector is a big integer.
DENOMINATORS = st.sampled_from([1, 2, 3, 7, 2**20, 3**13, 10007, 65537, 2**61 - 1])
LEX_COSTS = st.one_of(
    st.just(pg.INFINITY),
    st.sampled_from([pg.cost(0), pg.cost(1), pg.cost("1/2")]),  # repeats across levels
    st.builds(
        lambda num, den: pg.cost(Fraction(num, den)), st.integers(0, 10**30), DENOMINATORS
    ),
)
LEX_BLOCK = st.lists(st.tuples(LEX_COSTS, st.integers(1, 4)), max_size=8).map(sorted)


@settings(max_examples=300, deadline=None)
@given(blocks=st.dictionaries(st.sampled_from("abcdef"), LEX_BLOCK, max_size=5))
@example(blocks={"a": [], "b": []})
@example(blocks={"a": [(pg.cost(0), 2), (pg.cost(0), 3)], "b": [(pg.cost(0), 1)]})
@example(blocks={"a": [(pg.cost(1), 4), (pg.INFINITY, 1)], "b": [(pg.INFINITY, 2)]})
@example(  # equal numerators over coprime denominators, with the larger first
    blocks={"a": [(pg.cost("1/65537"), 1)], "b": [(pg.cost("1/10007"), 1)]}
)
def test_lex_vector_sorts_like_cost_level_tuples(blocks):
    """The integer keys give the order of sorting the (ExtCost, level) tuples."""
    expected = tuple(sorted(pair for block in blocks.values() for pair in block))
    for axioms in ("delay", "market"):
        vec = _lex_vector(blocks, axioms)
        assert vec.pairs == expected
        assert vec.canonical() == pg.LexVector(expected).canonical()


def falling_game(upper, lower):
    """One resource whose delay falls from d(0, 1) = upper to d(0, 2) = lower."""
    game = pg.build_game(
        n_players=2,
        resources=["e"],
        spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
        priorities=pg.PriorityFunction({"e": {1: 1, 2: 1}}),
        delays={"e": pg.table_from_function(lambda x, y: x + y, 3)},
    )
    entries = dict(game.delays["e"].entries)
    entries[0, 1], entries[0, 2] = pg.cost(upper), pg.cost(lower)
    return dataclasses.replace(game, delays={"e": pg.TableDelay(entries=entries, bound=3)})


def falling_market(upper, lower):
    """One resource whose level-1 market delay falls from upper to lower."""
    tri = pg.tritable_from_function(lambda l, x, y: x + y, levels=1, bound=3)
    market = pg.build_market(
        n_players=2,
        resources=["e"],
        spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
        costs={(1, "e"): Fraction(1), (2, "e"): Fraction(1)},
        delays={"e": tri},
    )
    entries = dict(tri.entries)
    entries[1, 0, 1], entries[1, 0, 2] = pg.cost(upper), pg.cost(lower)
    return dataclasses.replace(market, delays={"e": pg.TriTable(levels=1, bound=3, entries=entries)})


@pytest.mark.parametrize(
    "upper, lower, shown",
    [("3", "2", "3/1@1 > 2/1@1"), ("inf", "5/2", "inf@1 > 5/2@1"), ("1/3", "0", "1/3@1 > 0/1@1")],
)
def test_falling_block_names_the_broken_axioms(upper, lower, shown):
    both = pg.profile({1: "e", 2: "e"})
    with pytest.raises(pg.InvariantViolatedError) as delay_err:
        pg.lex_potential_singleton(falling_game(upper, lower), both)
    assert str(delay_err.value) == f"resource e: pairs {shown} violate the delay axioms"
    with pytest.raises(pg.InvariantViolatedError) as market_err:
        pg.market_lex_potential(falling_market(upper, lower), both)
    assert str(market_err.value) == f"resource e: pairs {shown} violate the market axioms"


def test_decrease_holds_on_classic_wrapped_games():
    checked = 0
    for seed in range(10):
        game = gen_game(
            1500 + seed, players=3, resources=3, space_kind="singleton", model="classic", levels=2
        )
        for prof in all_profiles(game):
            before = pg.lex_potential_singleton(game, prof)
            for p in game.players():
                for alt in alternatives(game, prof, p):
                    moved = prof.with_player(p, alt)
                    if pg.player_cost(game, moved, p) < pg.player_cost(game, prof, p):
                        after = pg.lex_potential_singleton(game, moved)
                        assert pg.lex_compare(after, before) == LESS
                        checked += 1
    assert checked > 20


class TestLevelPotential:
    def game_2x_y(self, n, priomap):
        return pg.build_game(
            n_players=n,
            resources=["e", "f"],
            spaces={i: pg.SingletonSpace(["e", "f"]) for i in range(1, n + 1)},
            priorities=pg.PriorityFunction.uniform(["e", "f"], priomap),
            delays={r: pg.table_from_function(lambda x, y: 2 * x + y, 2 * n) for r in ("e", "f")},
        )

    def test_two_players_one_resource(self):
        game = self.game_2x_y(2, {1: 1, 2: 1})
        pot = pg.level_potential(game, pg.State({1: "e", 2: "e"}), 1)
        assert pot.value == pg.cost(3)  # d(0,1) + d(0,2)

    def test_empty_inner_is_zero(self):
        game = self.game_2x_y(2, {1: 1, 2: 1})
        assert pg.level_potential(game, pg.State({}), 1).value == pg.ZERO

    def test_one_frozen_outer_player(self):
        game = self.game_2x_y(2, {1: 1, 2: 2})
        pot = pg.level_potential(game, pg.State({1: "e", 2: "e"}), 2)
        assert pot.value == pg.cost(3)  # d(1, 1)

    def test_less_prioritized_players_ignored(self):
        game = self.game_2x_y(3, {1: 1, 2: 2, 3: 2})
        state = pg.State({1: "e", 2: "e", 3: "f"})
        assert pg.level_potential(game, state, 1).value == pg.cost(1)  # d(0, 1)
        assert pg.level_potential(game, pg.State({1: "e"}), 1).value == pg.cost(1)
        # players 2 and 3 only: player 1 is below, nobody is above
        assert pg.level_potential(game, state, 2).value == pg.cost(4)  # d(1,1) + d(0,1)

    def test_exactness_small_sweep(self):
        import random

        rng = random.Random(9)
        for seed in range(10):
            game = gen_game(
                2000 + seed, players=4, resources=3, space_kind="mixed", levels=2, consistent=True
            )
            levels = {i: game.priorities.level(i) for i in game.players()}
            for q in sorted(set(levels.values())):
                lower = [i for i in game.players() if levels[i] < q]
                mine = [i for i in game.players() if levels[i] == q]
                above = [i for i in game.players() if levels[i] > q and rng.random() < 0.5]
                outer = pg.State(
                    {i: rng.choice(game.spaces[i].all_bases()) for i in lower}
                )
                inner = pg.State(
                    {i: rng.choice(game.spaces[i].all_bases()) for i in mine}
                )
                # less prioritized players sit in the state but never count
                ignored = {i: rng.choice(game.spaces[i].all_bases()) for i in above}
                full = pg.State(dict(list(outer.items()) + list(inner.items())) | ignored)
                base = pg.level_potential(game, full, q)
                for i in mine:
                    before_cost = pg.player_cost(game, full, i)
                    for alt in game.spaces[i].all_bases():
                        if alt == inner.strategy(i):
                            continue
                        moved_full = full.with_player(i, alt)
                        after = pg.level_potential(game, moved_full, q)
                        d_pot = after.value.finite() - base.value.finite()
                        d_cost = (
                            pg.player_cost(game, moved_full, i).finite()
                            - before_cost.finite()
                        )
                        assert d_pot == d_cost


class TestMarketLexPotential:
    def market_two_costs(self):
        distinct = [Fraction(1), Fraction(2)]
        tri = pg.tritable_from_function(
            lambda l, x, y: distinct[l - 1] + x + y - 1, levels=2, bound=3
        )
        return pg.build_market(
            n_players=2,
            resources=["e"],
            spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
            costs={(1, "e"): Fraction(1), (2, "e"): Fraction(2)},
            delays={"e": tri},
        )

    def test_two_cost_levels(self):
        market = self.market_two_costs()
        vec = pg.market_lex_potential(market, pg.profile({1: "e", 2: "e"}))
        assert vec.pairs == pairs((1, 1), (3, 2))

    def test_tied_costs_one_level(self):
        tri = pg.tritable_from_function(lambda l, x, y: x + y, levels=1, bound=3)
        market = pg.build_market(
            n_players=2,
            resources=["e"],
            spaces={1: pg.SingletonSpace(["e"]), 2: pg.SingletonSpace(["e"])},
            costs={(1, "e"): Fraction(1), (2, "e"): Fraction(1)},
            delays={"e": tri},
        )
        vec = pg.market_lex_potential(market, pg.profile({1: "e", 2: "e"}))
        assert vec.pairs == pairs((1, 1), (2, 1))

    def test_decrease_small_sweep(self):
        checked = 0
        for seed in range(10):
            market = gen_source(3000 + seed, players=3, resources=3, model="market")
            for prof in all_profiles(market):
                before = pg.market_lex_potential(market, prof)
                for p in market.players():
                    current = pg.market_player_cost(market, prof, p)
                    for alt in market.spaces[p].all_bases():
                        if alt == prof.strategy(p):
                            continue
                        moved = prof.with_player(p, alt)
                        if pg.market_player_cost(market, moved, p) < current:
                            after = pg.market_lex_potential(market, moved)
                            assert pg.lex_compare(after, before) == LESS
                            checked += 1
        assert checked > 30


def seed0_market():
    """The generator's seed-0 market: players 1-3 on singleton spaces over a and b."""
    market = gen_source(0, players=3, resources=2, model="market")
    assert list(market.players()) == [1, 2, 3] and market.resources == ("a", "b")
    return market


def test_market_potential_refuses_a_two_resource_strategy():
    prof = pg.State({1: ["a", "b"], 2: "a", 3: "b"})
    with pytest.raises(pg.ValidationFailed) as err:
        pg.market_lex_potential(seed0_market(), prof)
    assert [v.code for v in err.value.violations] == ["BAD_STRATEGY"]


def test_market_potential_refuses_an_unknown_player():
    prof = pg.State({1: "a", 2: "a", 3: "b", 99: "a"})
    with pytest.raises(pg.ValidationFailed) as err:
        pg.market_lex_potential(seed0_market(), prof)
    assert [v.code for v in err.value.violations] == ["UNKNOWN_PLAYER"]


def test_market_potential_still_names_missing_players():
    with pytest.raises(pg.LengthMismatchError, match=r"missing \[3\]"):
        pg.market_lex_potential(seed0_market(), pg.State({1: "a", 2: "b"}))


class TestInsertionPotential:
    def test_t1_tolerance(self, t1):
        assert pg.tol_value(t1, pg.State({1: "a"}), 1) == 1

    def test_empty_state(self, t1):
        pot = pg.insertion_potential(t1, pg.State({}))
        assert pot.rows == ((0, 0), (0, 0))
        assert pot.tol_sum == 0

    def test_single_player_single_resource_tol_caps_at_n(self):
        game = pg.build_game(
            n_players=1,
            resources=["e"],
            spaces={1: pg.SingletonSpace(["e"])},
            priorities=pg.PriorityFunction({"e": {1: 1}}),
            delays={"e": pg.table_from_function(lambda x, y: x + y, 2)},
        )
        assert pg.tol_value(game, pg.State({1: "e"}), 1) == 1  # n == 1

    def test_no_alternative_constraint_hits_cap(self):
        game = pg.build_game(
            n_players=3,
            resources=["e"],
            spaces={i: pg.SingletonSpace(["e"]) for i in (1, 2, 3)},
            priorities=pg.PriorityFunction({"e": {1: 1, 2: 1, 3: 1}}),
            delays={"e": pg.table_from_function(lambda x, y: x + y, 5)},
        )
        assert pg.tol_value(game, pg.State({1: "e"}), 1) == 3

    def test_rows_sorted_and_shaped(self, t1):
        pot = pg.insertion_potential(t1, pg.State({1: "a"}))
        assert pot.rows == ((0, 0), (1, 0))
        assert pot.tol_sum == 1

    def test_compare_examples(self):
        a = pg.InsertionPotentialValue(rows=((0, 1), (1, 0)), tol_sum=3)
        b = pg.InsertionPotentialValue(rows=((0, 1), (1, 0)), tol_sum=4)
        assert pg.insertion_potential_compare(a, b) == LESS
        c = pg.InsertionPotentialValue(rows=((0, 1), (1, 1)), tol_sum=0)
        assert pg.insertion_potential_compare(a, c) == LESS  # rows decide first
        assert pg.insertion_potential_compare(a, a) == EQUAL

    def test_shape_mismatch(self):
        a = pg.InsertionPotentialValue(rows=((0, 1),), tol_sum=0)
        b = pg.InsertionPotentialValue(rows=((0, 1), (1, 0)), tol_sum=0)
        with pytest.raises(pg.ShapeMismatchError):
            pg.insertion_potential_compare(a, b)

    def test_kept_text_takes_no_part_in_equality_hash_or_compare(self):
        plain = [
            pg.InsertionPotentialValue(rows=((0, 1), (1, 0)), tol_sum=3),
            pg.InsertionPotentialValue(rows=((0, 1), (1, 0)), tol_sum=4),
            pg.InsertionPotentialValue(rows=((0, 1), (1, 1)), tol_sum=0),
            pg.InsertionPotentialValue(rows=((0, 0), (0, 0, 2)), tol_sum=7),
        ]
        assert plain[0].canonical() == "phi=0,1|1,0;tol=3"
        assert plain[3].canonical() == "phi=0,0|0,0,2;tol=7"
        kept = [dataclasses.replace(v, text=v.canonical()) for v in plain]
        for v, k in zip(plain, kept):
            assert k.text is not None and v.text is None
            assert k == v and hash(k) == hash(v)
            assert k.canonical() == v.canonical()
            assert repr(k) == repr(v)
            # equality never reads the text, even a wrong one
            assert dataclasses.replace(v, text="phi=9;tol=9") == v
        same_shape = list(zip(plain[:3], kept[:3]))
        for a, ka in same_shape:
            for b, kb in same_shape:
                expected = pg.insertion_potential_compare(a, b)
                assert pg.insertion_potential_compare(ka, kb) == expected
                assert pg.insertion_potential_compare(ka, b) == expected


# ---------------------------------------------------------------------------
# Affine tolerances in closed form against a linear scan

RATIONALS = st.fractions(min_value=0, max_value=6, max_denominator=4)


def scan_tolerance(spec, below, ceiling, n) -> int:
    """The largest y in 0..n with d(below, y') <= ceiling for every y' <= y."""
    best = 0
    for y in range(1, n + 1):
        if not spec.value(below, y) <= ceiling:
            break
        best = y
    return best


def crowd_game(n, spec):
    """n players who can only use resource ``a``, all at one level."""
    return pg.build_game(
        n_players=n,
        resources=["a"],
        spaces={p: pg.SingletonSpace(["a"]) for p in range(1, n + 1)},
        priorities=pg.PriorityFunction.constant(["a"], range(1, n + 1)),
        delays={"a": spec},
    )


@settings(max_examples=200, deadline=None)
@given(
    alpha=RATIONALS,
    beta=RATIONALS,
    ceiling=st.one_of(st.none(), st.fractions(min_value=0, max_value=40, max_denominator=6)),
    below=st.integers(0, 7),
    n=st.integers(1, 8),
)
@example(alpha=Fraction(0), beta=Fraction(1), ceiling=Fraction(2), below=3, n=5)  # beta <= c
@example(alpha=Fraction(0), beta=Fraction(3), ceiling=Fraction(2), below=0, n=5)  # beta > c
@example(alpha=Fraction(0), beta=Fraction(2), ceiling=Fraction(2), below=0, n=4)  # beta == c
@example(alpha=Fraction(1), beta=Fraction(0), ceiling=None, below=6, n=7)  # c = +inf
@example(alpha=Fraction(1, 2), beta=Fraction(0), ceiling=Fraction(100), below=0, n=4)  # clip at n
@example(alpha=Fraction(3), beta=Fraction(2), ceiling=Fraction(1), below=2, n=6)  # clip at 0
@example(alpha=Fraction(1), beta=Fraction(1, 3), ceiling=Fraction(7, 3), below=1, n=8)  # d == c
@example(alpha=Fraction(0), beta=Fraction(1, 3), ceiling=Fraction(1, 2), below=2, n=6)  # beta < c
@example(alpha=Fraction(0), beta=Fraction(5, 2), ceiling=Fraction(7, 3), below=0, n=6)  # beta > c
@example(alpha=Fraction(0), beta=Fraction(5, 2), ceiling=Fraction(5, 2), below=4, n=6)  # beta == c
@example(alpha=Fraction(0), beta=Fraction(0), ceiling=Fraction(0), below=0, n=3)  # 0 == c
def test_closed_form_affine_tolerance_matches_scan(alpha, beta, ceiling, below, n):
    spec = pg.AffineDelay(alpha=alpha, beta=beta)
    game = crowd_game(n, spec)
    bound = pg.INFINITY if ceiling is None else pg.cost(ceiling)
    below = min(below, n - 1)
    expected = scan_tolerance(spec, below, bound, n)
    assert _tolerance_count(n, game.points("a"), below, bound) == expected
    # a table of the same values takes the bisection to the same answer
    table = crowd_game(n, pg.table_from_function(spec.value, game.required_bound()))
    assert _tolerance_count(n, table.points("a"), below, bound) == expected


AFFINE_PARAMS = st.tuples(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)]),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), m=st.integers(2, 3))
def test_per_player_affine_tolerances_match_scan_and_bisection(data, n, m):
    """Each player's own affine delay: closed form, naive scan and the
    bisection on the same values tabulated all agree on every state."""
    resources = [f"r{k}" for k in range(m)]
    allowed = st.lists(st.sampled_from(resources), min_size=1, unique=True)
    spaces = {p: pg.SingletonSpace(data.draw(allowed)) for p in range(1, n + 1)}
    priorities = pg.PriorityFunction(
        {r: {p: data.draw(st.integers(1, 2)) for p in range(1, n + 1)} for r in resources}
    )
    params = {
        r: {p: data.draw(AFFINE_PARAMS) for p in range(1, n + 1)} for r in resources
    }

    def build(spec_of):
        delays = {
            r: pg.PerPlayerDelay(specs={p: spec_of(a, b) for p, (a, b) in params[r].items()})
            for r in resources
        }
        return pg.build_game(
            n_players=n, resources=resources, spaces=spaces, priorities=priorities, delays=delays
        )

    affine = build(lambda a, b: pg.AffineDelay(alpha=a, beta=b))
    tabled = build(
        lambda a, b: pg.table_from_function(pg.AffineDelay(alpha=a, beta=b).value, 2 * n - 1)
    )
    assert affine.player_specific
    placed = data.draw(st.lists(st.sampled_from(range(1, n + 1)), unique=True))
    state = pg.State({p: data.draw(st.sampled_from(sorted(spaces[p].ground()))) for p in placed})
    for p in state.players():
        expected = naive_tol(affine, state, p)
        assert pg.tol_value(affine, state, p) == expected
        assert pg.tol_value(tabled, pg.State(dict(state.items())), p) == expected


# ---------------------------------------------------------------------------
# The integer affine form a point table keeps

ALPHAS = [Fraction(0), Fraction(1, 2), Fraction(3, 2)]
BETAS = [Fraction(0), Fraction(1, 3), Fraction(5, 2)]


def parts(spec) -> tuple[int, int, int, int]:
    a, b = spec.alpha, spec.beta
    return (a.numerator, a.denominator, b.numerator, b.denominator)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta", BETAS)
def test_points_keep_the_reduced_affine_ints(alpha, beta):
    spec = pg.AffineDelay(alpha=alpha, beta=beta)
    shared = crowd_game(3, spec).points("a")
    assert shared.spec is spec and shared.affine == parts(spec)
    assert all(type(k) is int for k in shared.affine) and shared.affine[1] > 0 < shared.affine[3]
    other = pg.AffineDelay(alpha=beta + 1, beta=alpha * 2)
    game = pg.build_game(
        n_players=2,
        resources=["a"],
        spaces={1: pg.SingletonSpace(["a"]), 2: pg.SingletonSpace(["a"])},
        priorities=pg.PriorityFunction.constant(["a"], [1, 2]),
        delays={"a": pg.PerPlayerDelay(specs={1: spec, 2: other})},
    )
    assert game.points("a", 1).affine == parts(spec)
    assert game.points("a", 2).affine == parts(other)


@pytest.mark.parametrize(
    "spec",
    [
        pg.table_from_function(lambda x, y: 2 * x + y, 8),
        pg.ClassicDelay(values=tuple(pg.cost(k) for k in (1, 2, 4, 4))),
    ],
    ids=["table", "classic"],
)
def test_a_non_affine_table_keeps_none_and_bisects(spec):
    n = 4
    table = crowd_game(n, spec).points("a")
    assert table.affine is None
    for ceiling in (pg.cost(0), pg.cost(3), pg.cost(Fraction(9, 2)), pg.INFINITY):
        assert _tolerance_count(n, table, 0, ceiling) == scan_tolerance(spec, 0, ceiling, n)
    assert len(table) > 0  # the bisection probed the table
    # the closed form reads no point at all
    affine = crowd_game(n, pg.AffineDelay(alpha=Fraction(1, 2), beta=Fraction(1, 3))).points("a")
    _tolerance_count(n, affine, 1, pg.cost(2))
    assert len(affine) == 0

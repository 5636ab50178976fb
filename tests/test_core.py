import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import prioritygames as pg
from prioritygames.core import domain_points
from conftest import make_t1


def linear_table(bound):
    return pg.table_from_function(lambda x, y: 2 * x + y, bound)


class TestBuildGame:
    def test_t1_is_valid(self):
        game = make_t1()
        assert game.n_players == 2
        assert game.resources == ("a", "b")
        assert not game.player_specific
        assert game.is_singleton_game()

    def test_empty_strategy_space_rejected(self):
        with pytest.raises(pg.ValidationFailed):
            pg.ExplicitSpace([])

    def test_incomplete_table_rejected(self):
        entries = {
            (x, y): pg.cost(2 * x + y)
            for x, y in domain_points(4)
            if (x, y) != (0, 2)
        }
        bad = pg.TableDelay(entries=entries, bound=4)
        with pytest.raises(pg.ValidationFailed) as err:
            pg.build_game(
                n_players=2,
                resources=["a", "b"],
                spaces={1: pg.SingletonSpace(["a", "b"]), 2: pg.SingletonSpace(["a", "b"])},
                priorities=pg.PriorityFunction({"a": {1: 1, 2: 2}, "b": {1: 2, 2: 1}}),
                delays={"a": bad, "b": linear_table(4)},
            )
        assert any(
            v.code == "MISSING_ENTRY" and "x=0, y=2" in v.where for v in err.value.violations
        )

    def test_one_level_per_player_needs_consistent_priorities(self, t1, t1_consistent):
        assert [t1_consistent.priorities.level(p) for p in (1, 2)] == [1, 2]
        with pytest.raises(pg.InconsistentPrioritiesError):
            t1.priorities.level(1)

    def test_missing_priority_rejected(self):
        with pytest.raises(pg.ValidationFailed) as err:
            pg.build_game(
                n_players=2,
                resources=["a", "b"],
                spaces={1: pg.SingletonSpace(["a", "b"]), 2: pg.SingletonSpace(["a", "b"])},
                priorities=pg.PriorityFunction({"a": {1: 1, 2: 2}, "b": {1: 2}}),
                delays={r: linear_table(4) for r in ("a", "b")},
            )
        assert any(v.code == "MISSING_PRIORITY" for v in err.value.violations)

    def test_both_builders_report_the_same_missing_priorities(self):
        """Priority and classical builders share one coverage rule and its order."""
        spaces = {
            1: pg.SingletonSpace(["c", "a"]),
            2: pg.UniformMatroid(["a", "b", "c"], 2),
            3: pg.SingletonSpace(["b"]),
        }
        priorities = pg.PriorityFunction({"a": {1: 1}, "b": {3: 1}, "c": {2: 2}})
        with pytest.raises(pg.ValidationFailed) as game_err:
            pg.build_game(
                n_players=3,
                resources=["a", "b", "c"],
                spaces=spaces,
                priorities=priorities,
                delays={r: linear_table(5) for r in "abc"},
            )
        with pytest.raises(pg.ValidationFailed) as classic_err:
            pg.build_classic_game(
                n_players=3,
                resources=["a", "b", "c"],
                spaces=spaces,
                priorities=priorities,
                values={r: [pg.cost(k) for k in (1, 2, 3)] for r in "abc"},
            )
        expected = [
            pg.Violation("MISSING_PRIORITY", "resource c", "player 1 unranked"),
            pg.Violation("MISSING_PRIORITY", "resource a", "player 2 unranked"),
            pg.Violation("MISSING_PRIORITY", "resource b", "player 2 unranked"),
        ]
        assert game_err.value.violations == expected
        assert classic_err.value.violations == expected

    def test_small_bound_rejected_for_singleton_game(self):
        # two singleton players need tables up to 2n - 1 = 3
        with pytest.raises(pg.ValidationFailed) as err:
            pg.build_game(
                n_players=2,
                resources=["a"],
                spaces={1: pg.SingletonSpace(["a"]), 2: pg.SingletonSpace(["a"])},
                priorities=pg.PriorityFunction({"a": {1: 1, 2: 1}}),
                delays={"a": linear_table(2)},
            )
        assert any(v.code == "BOUND_TOO_SMALL" for v in err.value.violations)

    def test_axiom_breach_rejected(self):
        decreasing = pg.table_from_function(lambda x, y: 10 - y, 3)
        with pytest.raises(pg.ValidationFailed) as err:
            pg.build_game(
                n_players=1,
                resources=["a"],
                spaces={1: pg.SingletonSpace(["a"])},
                priorities=pg.PriorityFunction({"a": {1: 1}}),
                delays={"a": decreasing},
            )
        assert any("MONOTONE" in v.code for v in err.value.violations)


class TestEvaluateDelay:
    def test_affine(self):
        spec = pg.AffineDelay(alpha=Fraction(2), beta=Fraction(1))
        assert pg.evaluate_delay(spec, 1, 3) == pg.cost(7)

    def test_classic_wrap_cases(self):
        spec = pg.ClassicDelay(values=tuple(pg.cost(y * y) for y in (1, 2, 3)))
        assert pg.evaluate_delay(spec, 0, 3) == pg.cost(9)
        assert pg.evaluate_delay(spec, 2, 1) == pg.INFINITY

    def test_table(self):
        assert pg.evaluate_delay(linear_table(4), 0, 1) == pg.cost(1)

    def test_out_of_bound(self):
        with pytest.raises(pg.OutOfBoundError):
            pg.evaluate_delay(linear_table(4), 3, 2)
        with pytest.raises(pg.OutOfBoundError):
            pg.evaluate_delay(linear_table(4), 0, 0)

    def test_per_player_dispatch(self):
        spec = pg.PerPlayerDelay(
            specs={1: linear_table(4), 2: pg.AffineDelay(alpha=Fraction(0), beta=Fraction(5))}
        )
        assert pg.evaluate_delay(spec, 0, 2, player=1) == pg.cost(2)
        assert pg.evaluate_delay(spec, 0, 2, player=2) == pg.cost(5)
        with pytest.raises(TypeError):
            pg.evaluate_delay(spec, 0, 2)

    def test_pure_and_deterministic(self):
        spec = linear_table(6)
        assert all(
            pg.evaluate_delay(spec, 1, 2) == pg.evaluate_delay(spec, 1, 2) for _ in range(3)
        )


class TestValidateDelayProperties:
    def test_linear_table_clean(self):
        assert pg.validate_delay_properties(linear_table(4), 4) == []

    def test_ignoring_x_breaks_replacement(self):
        spec = pg.table_from_function(lambda x, y: y, 3)
        report = pg.validate_delay_properties(spec, 3)
        assert any(
            v.code == "REPLACEMENT_FAILED" and v.where == "(x=0, y=2)" for v in report
        )

    @pytest.mark.parametrize(
        "alpha,beta",
        [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1)), (Fraction(7, 2), Fraction(1, 3))],
    )
    def test_affine_always_clean(self, alpha, beta):
        spec = pg.AffineDelay(alpha=alpha, beta=beta)
        assert pg.validate_delay_properties(spec, 6) == []

    def test_affine_clean_up_to_bound_12(self):
        spec = pg.AffineDelay(alpha=Fraction(3, 2), beta=Fraction(5))
        assert pg.validate_delay_properties(spec, 12) == []

    def test_classic_wrap_iff_nondecreasing(self):
        good = pg.ClassicDelay(values=(pg.cost(1), pg.cost(1), pg.cost(4)))
        bad = pg.ClassicDelay(values=(pg.cost(3), pg.cost(1), pg.cost(4)))
        assert good.univariate_nondecreasing()
        assert not bad.univariate_nondecreasing()
        assert pg.validate_delay_properties(good, 4) == []
        assert pg.validate_delay_properties(bad, 4) != []

    def test_bound_precondition(self):
        with pytest.raises(ValueError):
            pg.validate_delay_properties(linear_table(4), 1)


def test_required_bound_rule():
    assert pg.required_table_bound(4, singleton=True) == 7
    assert pg.required_table_bound(4, singleton=False) == 4
    assert pg.required_table_bound(1, singleton=True) == 2


def test_priority_function_consistency_detection():
    same = pg.PriorityFunction({"a": {1: 1, 2: 2}, "b": {1: 1, 2: 2}})
    assert same.consistent
    mixed = pg.PriorityFunction({"a": {1: 1, 2: 2}, "b": {1: 2, 2: 1}})
    assert not mixed.consistent
    with pytest.raises(pg.ValidationFailed):
        pg.PriorityFunction({"a": {1: 0}})


def test_noncontiguous_priorities_supported():
    game = pg.build_game(
        n_players=2,
        resources=["a"],
        spaces={1: pg.SingletonSpace(["a"]), 2: pg.SingletonSpace(["a"])},
        priorities=pg.PriorityFunction({"a": {1: 3, 2: 9}}),
        delays={"a": linear_table(4)},
    )
    prof = pg.profile({1: "a", 2: "a"})
    assert pg.player_cost(game, prof, 1) == pg.cost(1)
    assert pg.player_cost(game, prof, 2) == pg.cost(3)


# ---------------------------------------------------------------------------
# Parity of validate_delay_properties with a naive grid walk


def naive_supports(spec, x, y):
    """The domain each spec kind can be evaluated on; classic wraps are ragged."""
    if x < 0 or y < 1:
        return False
    if isinstance(spec, pg.TableDelay):
        return x + y <= spec.bound
    if isinstance(spec, pg.ClassicDelay):
        return x >= 1 or y <= len(spec.values)
    return True


def naive_validate(spec, bound):
    """Every axiom at every supported point up to ``bound``, for every kind."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if isinstance(spec, pg.PerPlayerDelay):
        return [
            pg.Violation(v.code, f"player {i}: {v.where}", v.message)
            for i, sub in sorted(spec.specs.items())
            for v in naive_validate(sub, bound)
        ]
    out = []
    if isinstance(spec, pg.TableDelay):
        out = [
            pg.Violation("MISSING_ENTRY", f"(x={x}, y={y})", "domain point not supported")
            for x, y in domain_points(bound)
            if not naive_supports(spec, x, y)
        ]
        if out:
            return out
    for x, y in domain_points(bound):
        if not naive_supports(spec, x, y):
            continue
        here = spec.value(x, y)
        if x + 1 + y <= bound and naive_supports(spec, x + 1, y):
            right = spec.value(x + 1, y)
            if not here <= right:
                out.append(
                    pg.Violation(
                        "NOT_MONOTONE_X",
                        f"(x={x}, y={y})",
                        f"d({x},{y})={here} > d({x + 1},{y})={right}",
                    )
                )
        if x + y + 1 <= bound and naive_supports(spec, x, y + 1):
            up = spec.value(x, y + 1)
            if not here <= up:
                out.append(
                    pg.Violation(
                        "NOT_MONOTONE_Y",
                        f"(x={x}, y={y})",
                        f"d({x},{y})={here} > d({x},{y + 1})={up}",
                    )
                )
        if naive_supports(spec, x + y - 1, 1):
            swapped = spec.value(x + y - 1, 1)
            if not here <= swapped:
                out.append(
                    pg.Violation(
                        "REPLACEMENT_FAILED",
                        f"(x={x}, y={y})",
                        f"d({x},{y})={here} > d({x + y - 1},1)={swapped}",
                    )
                )
    return out


def random_cost(rng):
    return pg.INFINITY if rng.random() < 0.1 else pg.cost(Fraction(rng.randint(0, 12), rng.randint(1, 3)))


def random_affine(rng, bound):
    return pg.AffineDelay(
        alpha=Fraction(rng.randint(0, 6), rng.randint(1, 4)),
        beta=Fraction(rng.randint(0, 6), rng.randint(1, 4)),
    )


def random_classic(rng, bound):
    length = rng.randint(1, bound + 3)
    if rng.random() < 0.5:
        return pg.ClassicDelay(values=tuple(random_cost(rng) for _ in range(length)))
    # mostly nondecreasing, with the odd drop
    values, level = [], 0
    for _ in range(length):
        level = max(0, level + rng.choice((-1, 0, 1, 2, 2)))
        values.append(pg.cost(level))
    return pg.ClassicDelay(values=tuple(values))


def random_table(rng, bound):
    own = max(2, bound + rng.randint(-2, 2))
    if rng.random() < 0.5:
        return pg.TableDelay(
            entries={p: random_cost(rng) for p in domain_points(own)}, bound=own
        )
    # a valid shape, perturbed at a few points
    entries = {(x, y): pg.cost(2 * x + y) for x, y in domain_points(own)}
    for _ in range(rng.randint(0, 2)):
        p = rng.choice(sorted(entries))
        entries[p] = random_cost(rng)
    return pg.TableDelay(entries=entries, bound=own)


def random_per_player(rng, bound):
    makers = (random_affine, random_classic, random_table)
    return pg.PerPlayerDelay(
        specs={i: rng.choice(makers)(rng, bound) for i in range(1, rng.randint(1, 4))}
    )


def as_tuples(violations):
    return [(v.code, v.where, v.message) for v in violations]


@pytest.mark.parametrize(
    "make", [random_affine, random_classic, random_table, random_per_player]
)
def test_validate_matches_naive_grid_walk(make):
    rng = random.Random(f"parity-{make.__name__}")
    flagged = 0
    for _ in range(300):
        bound = rng.randint(2, 12)
        spec = make(rng, bound)
        expected = as_tuples(naive_validate(spec, bound))
        assert as_tuples(pg.validate_delay_properties(spec, bound)) == expected, (spec, bound)
        flagged += bool(expected)
    if make is not random_affine:
        # the sample reaches the failing cases, not only clean specs
        assert flagged > 30


def classic_game(values, n=4):
    return pg.build_game(
        n_players=n,
        resources=["a"],
        spaces={i: pg.SingletonSpace(["a"]) for i in range(1, n + 1)},
        priorities=pg.PriorityFunction.constant(["a"], range(1, n + 1)),
        delays={"a": pg.ClassicDelay(values=tuple(pg.cost(v) for v in values))},
    )


class TestClassicAxiomBound:
    # n = 4 singleton players: tables need bound 7, classic wraps are checked
    # on their first n + 1 = 5 values

    def test_drop_after_value_n_plus_1_accepted(self):
        game = classic_game([1, 2, 3, 4, 5, 0, 0])
        assert game.delays["a"].values[5] == pg.cost(0)

    def test_drop_within_first_n_plus_1_rejected(self):
        with pytest.raises(pg.ValidationFailed) as err:
            classic_game([1, 2, 3, 4, 0, 0, 0])
        assert as_tuples(err.value.violations) == [
            ("NOT_MONOTONE_Y", "resource a: (x=0, y=4)", "d(0,4)=4/1 > d(0,5)=0/1")
        ]

    def test_player_specific_classic_uses_same_rule(self):
        def game(values):
            spec = pg.ClassicDelay(values=tuple(pg.cost(v) for v in values))
            return pg.build_game(
                n_players=4,
                resources=["a"],
                spaces={i: pg.SingletonSpace(["a"]) for i in range(1, 5)},
                priorities=pg.PriorityFunction.constant(["a"], range(1, 5)),
                delays={"a": pg.PerPlayerDelay(specs={i: spec for i in range(1, 5)})},
            )

        assert game([1, 2, 3, 4, 5, 0]).player_specific
        with pytest.raises(pg.ValidationFailed) as err:
            game([1, 2, 3, 4, 0])
        assert [v.where for v in err.value.violations] == [
            f"resource a, player {i}: (x=0, y=4)" for i in range(1, 5)
        ]


# ---------------------------------------------------------------------------
# The affine closed form, nested player-specific delays, table holes

rationals = st.fractions(min_value=0, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, st.integers(0, 10**4), st.integers(1, 10**4))
def test_affine_value_matches_definition(alpha, beta, x, y):
    spec = pg.AffineDelay(alpha=alpha, beta=beta)
    assert spec.value(x, y).finite() == alpha * (x + Fraction(y + 1, 2)) + beta


def test_nested_player_delay_rejected():
    classic = pg.ClassicDelay(values=tuple(pg.cost(v) for v in (1, 2, 3, 4)))
    nested = pg.PerPlayerDelay(specs={1: classic})
    with pytest.raises(pg.ValidationFailed) as err:
        pg.build_game(
            n_players=4,
            resources=["a"],
            spaces={i: pg.SingletonSpace(["a"]) for i in range(1, 5)},
            priorities=pg.PriorityFunction.constant(["a"], range(1, 5)),
            delays={"a": pg.PerPlayerDelay(specs={i: nested for i in range(1, 5)})},
        )
    assert [(v.code, v.where) for v in err.value.violations] == [
        ("NESTED_PLAYER_DELAY", f"resource a, player {i}") for i in range(1, 5)
    ]


def test_table_hole_reported_as_missing_entry():
    entries = dict(pg.table_from_function(lambda x, y: x + y, 4).entries)
    del entries[(1, 1)]
    holed = pg.TableDelay(entries=entries, bound=4)
    assert as_tuples(pg.validate_delay_properties(holed, 4)) == [
        ("MISSING_ENTRY", "(x=1, y=1)", "no table entry within bound")
    ]


def test_priority_consistency_is_always_computed():
    maps = {"a": {1: 1, 2: 2}, "b": {1: 2, 2: 1}}
    with pytest.raises(TypeError):
        pg.PriorityFunction(maps, consistent=True)
    assert pg.PriorityFunction.uniform(["a", "b"], {1: 1, 2: 2}).consistent
    # a per-resource game writes every resource's row, so it reads back equal
    game = make_t1()
    assert game.priorities == pg.PriorityFunction(maps) and not game.priorities.consistent
    back = pg.parse_instance(pg.emit_instance(game))
    assert back == game and back.priorities.of("b", 1) == 2

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prioritygames.costs import (
    INFINITY,
    ZERO,
    ExtCost,
    cost,
    improvement,
    parse_fraction,
    sum_costs,
)

finite_costs = st.builds(
    lambda n, d: ExtCost(Fraction(n, d)),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**3),
)
any_costs = st.one_of(finite_costs, st.just(INFINITY))


def test_infinity_is_maximal_and_reflexive():
    assert INFINITY == INFINITY
    assert not INFINITY < INFINITY
    assert cost(10**9) < INFINITY
    assert INFINITY > cost("999999999/7")


def test_saturating_addition():
    assert INFINITY + cost(3) == INFINITY
    assert cost(3) + INFINITY == INFINITY
    assert cost("1/2") + cost("1/3") == cost("5/6")
    assert sum_costs([]) == ZERO
    assert sum_costs([cost(1), INFINITY, cost(2)]) == INFINITY


def test_parse_and_format():
    assert cost("7/2").to_string() == "7/2"
    assert cost("4/2").to_string() == "2/1"
    assert cost("3").to_string() == "3/1"
    assert cost("inf").to_string() == "inf"
    assert ExtCost.of(cost("inf")) is INFINITY


@pytest.mark.parametrize(
    "bad", ["3/0", "-1", "1/-2", "a/b", "1.5", "", "1/2/3", "\u0661/\u0662", "\u00b2"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_fraction(bad)


def test_negative_rejected():
    with pytest.raises(ValueError):
        ExtCost.of(-1)


def test_improvement():
    assert improvement(cost(5), cost(2)) == cost(3)
    assert improvement(INFINITY, cost(2)) == INFINITY
    with pytest.raises(ValueError):
        improvement(cost(2), cost(2))


@given(any_costs, any_costs)
def test_total_order(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(any_costs, any_costs, any_costs)
def test_order_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(finite_costs)
def test_string_round_trip(a):
    assert ExtCost.of(a.to_string()) == a


@given(any_costs, any_costs)
def test_addition_monotone(a, b):
    assert a <= a + b


@given(any_costs, any_costs)
def test_le_and_ge_agree_with_lt_and_eq(a, b):
    assert (a <= b) == (a < b or a == b)
    assert (a >= b) == (b < a or a == b)


@pytest.mark.parametrize("other", [3, Fraction(1, 2), "1/2", None])
def test_ordering_against_non_costs_raises(other):
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(cost(1), other)
        with pytest.raises(TypeError):
            op(other, INFINITY)


def _truth_key(c: ExtCost):
    """The exact order of the value a cost stands for (None = +infinity)."""
    return (c.frac is None, c.frac if c.frac is not None else 0)


cost_pairs = st.one_of(
    any_costs.map(lambda a: (a, a)),  # one shared object
    any_costs.map(lambda a: (a, ExtCost(a.frac))),  # equal values, distinct objects
    st.tuples(any_costs, any_costs),  # independent draws, mostly different
)


@given(cost_pairs)
def test_comparisons_agree_with_the_exact_values(pair):
    a, b = pair
    ka, kb = _truth_key(a), _truth_key(b)
    assert (a == b) == (ka == kb)
    assert (a != b) == (ka != kb)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)


def test_same_object_comparisons():
    for a in (INFINITY, ZERO, cost("7/2")):
        assert a == a and a <= a and a >= a
        assert not (a < a or a > a or a != a)


@given(any_costs)
def test_single_part_sum_is_the_part(a):
    plain = INFINITY if a.frac is None else ExtCost(sum([a.frac], Fraction(0)))
    for total in (sum_costs([a]), sum_costs(v for v in (a,))):
        assert total is a
        assert total == plain and total.to_string() == plain.to_string()

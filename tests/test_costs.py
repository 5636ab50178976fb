import copy
import io
import operator
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_t1
from prioritygames.cli import cli_main
from prioritygames.costs import (
    INFINITY,
    ZERO,
    ExtCost,
    cost,
    improvement,
    parse_fraction,
    sum_costs,
)
from prioritygames.errors import ParseError
from prioritygames.jsonio import document_to_source, emit_instance, instance_to_document
from prioritygames.traceio import read_trace_csv

finite_costs = st.builds(
    lambda n, d: ExtCost(Fraction(n, d)),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**3),
)
any_costs = st.one_of(finite_costs, st.just(INFINITY))
# Numerators to 2^64 and denominators to the prime 2^61 - 1, so the cross
# products that compare costs run far past one machine word.
wide_costs = st.one_of(
    st.builds(
        lambda n, d: ExtCost(Fraction(n, d)),
        st.integers(min_value=0, max_value=2**64),
        st.integers(min_value=1, max_value=2**61 - 1),
    ),
    st.just(ZERO),
    st.just(INFINITY),
)


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


@pytest.mark.parametrize("signed", ["-0", "-0/3", "-3/-2"])
@pytest.mark.parametrize("where", ["parse_fraction", "table cell", "trace cost cell"])
def test_rationals_on_the_wire_are_unsigned(where, signed):
    # each reads as a nonnegative value (0, 0, 3/2) but is written with a sign
    malformed = f"malformed rational {signed!r}"
    if where == "parse_fraction":
        with pytest.raises(ValueError, match=re.escape(malformed)):
            parse_fraction(signed)
    elif where == "table cell":
        doc = instance_to_document(make_t1())
        doc["delays"]["b"]["entries"][2][2] = signed
        with pytest.raises(ParseError, match=re.escape(f"delays.b.entries[2]: {malformed}")):
            document_to_source(doc)
    else:
        text = "step,phase,player,from,to,cost_before,cost_after,potential\n"
        text += f"0,start,2,,a,,,\n1,br,2,a,b,5/1,{signed},\n"
        with pytest.raises(ParseError, match=re.escape(f"line 3: {malformed}")):
            read_trace_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "cell, ok",
    [(" 3/1", False), ("3 /1", False), ("3/ 1", False), ("3/1 ", False),
     (" inf", False), ("inf ", False), ("3/1", True), ("inf", True)],
)
@pytest.mark.parametrize("where", ["ExtCost.of", "table cell", "trace cost cell"])
def test_costs_on_the_wire_have_no_whitespace(where, cell, ok, tmp_path, capsys):
    malformed = f"malformed rational {cell!r}"
    if where == "ExtCost.of":
        if ok:
            assert ExtCost.of(cell).to_string() == ("inf" if cell == "inf" else "3/1")
        else:
            with pytest.raises(ValueError, match=re.escape(malformed)):
                ExtCost.of(cell)
    elif where == "table cell":
        doc = instance_to_document(make_t1())
        for entry in doc["delays"]["b"]["entries"]:  # a constant table meets the axioms
            entry[2] = cell
        if ok:
            assert document_to_source(doc).delays["b"].entries[(0, 3)] == cost(cell)
        else:
            with pytest.raises(ParseError, match=re.escape(f"delays.b.entries[0]: {malformed}")):
                document_to_source(doc)
    else:
        text = "step,phase,player,from,to,cost_before,cost_after,potential\n"
        text += f"0,start,2,,a,,,\n1,br,2,a,b,5/1,{cell},\n"
        if ok:
            assert read_trace_csv(io.StringIO(text)).steps[0].cost_after == cost(cell)
            return
        with pytest.raises(ParseError, match=re.escape(f"line 3: {malformed}")):
            read_trace_csv(io.StringIO(text))
        instance, trace = tmp_path / "t1.json", tmp_path / "t.csv"
        instance.write_bytes(emit_instance(make_t1()))
        trace.write_text(text)
        assert cli_main(["verify", str(instance), "--trace", str(trace)]) == 1
        assert f"line 3: {malformed}" in capsys.readouterr().err


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


@given(wide_costs, wide_costs)
def test_integer_comparisons_agree_with_fraction(a, b):
    ka, kb = _truth_key(a), _truth_key(b)
    assert (a == b) == (ka == kb)
    assert (a != b) == (ka != kb)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    assert (a.num, a.den) == ((1, 0) if a.frac is None else (a.frac.numerator, a.frac.denominator))
    twin = ExtCost(a.frac)  # an equal value in another object
    assert twin == a and not twin < a and hash(twin) == hash(a) == hash(a.frac)


@given(st.lists(wide_costs, max_size=5))
def test_sum_costs_agrees_with_fraction(parts):
    total = sum_costs(parts)
    if any(p.frac is None for p in parts):
        assert total is INFINITY
    else:
        exact = sum((p.frac for p in parts), Fraction(0))
        assert total.frac == exact
        assert (total.num, total.den) == (exact.numerator, exact.denominator)


@given(wide_costs, wide_costs)
def test_improvement_agrees_with_fraction(before, after):
    if not _truth_key(after) < _truth_key(before):
        with pytest.raises(ValueError):
            improvement(before, after)
    elif before.frac is None:
        assert improvement(before, after) is INFINITY
    else:
        assert improvement(before, after).frac == before.frac - after.frac


@given(wide_costs)
def test_to_string_agrees_with_fraction_and_is_kept(a):
    text = a.to_string()
    assert text == ("inf" if a.frac is None else f"{a.frac.numerator}/{a.frac.denominator}")
    assert a.to_string() is text  # formatted once, then kept
    assert ExtCost.of(text) == a


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": _pickled}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_costs_copy_and_pickle(how):
    again = COPIES[how](cost("7/2"))
    assert again == cost("7/2") and type(again) is ExtCost
    assert COPIES[how](INFINITY) is INFINITY


@pytest.mark.parametrize("how", sorted(COPIES))
def test_traces_and_games_copy_and_pickle(how):
    import prioritygames as pg
    from conftest import gen_game
    from prioritygames.traceio import trace_to_csv_text

    game = gen_game(39, players=6, resources=3, model="affine", levels=3)
    _, trace = pg.solve_insertion(game)
    text = trace_to_csv_text(trace)
    assert trace_to_csv_text(COPIES[how](trace)) == text
    again = COPIES[how](game)
    assert again == game
    assert trace_to_csv_text(pg.solve_insertion(again)[1]) == text
    report = pg.certify_trace(game, trace)
    assert COPIES[how](report) == report and report.ok

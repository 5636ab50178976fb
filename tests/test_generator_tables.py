"""The generator's int tables against the rational construction they replace.

``_monotone_table`` keeps each value as an int numerator over
4^(bound - 1).  The reference below is the construction on ``Fraction``s;
both must draw the same random numbers and yield the same values, and the
written tables and tritables must be the same text.
"""

import random
from fractions import Fraction

import pytest

from prioritygames.core import domain_points
from prioritygames.costs import format_fraction
from prioritygames.generator import _monotone_table, _random_table, _random_tritable


def reference_monotone_table(rng, bound, max_delay):
    row1 = [Fraction(rng.randint(0, max(1, max_delay // 3)))]
    for _ in range(1, bound):
        step = Fraction(rng.choice([0, 0, 1, 1, 2]))
        row1.append(min(Fraction(max_delay), row1[-1] + step))
    values = {(x, 1): row1[x] for x in range(bound)}
    for y in range(2, bound + 1):
        for x in range(0, bound - y + 1):
            lo = values[(x, y - 1)]
            if x > 0:
                lo = max(lo, values[(x - 1, y)])
            hi = row1[x + y - 1]
            values[(x, y)] = lo + (hi - lo) * Fraction(rng.randint(0, 4), 4)
    return values


def reference_tritable(rng, levels, bound, max_delay):
    base = reference_monotone_table(rng, bound, max_delay)
    offsets = []
    cur = Fraction(0)
    for _ in range(levels):
        offsets.append(cur)
        cur += Fraction(rng.randint(0, 2))
    entries = [
        [l + 1, x, y, format_fraction(v + offsets[l])]
        for l in range(levels)
        for (x, y), v in sorted(base.items())
    ]
    return {"kind": "tritable", "levels": levels, "bound": bound, "entries": entries}


@pytest.mark.parametrize("bound", range(2, 16))
def test_int_table_equals_rational_reference(bound):
    for seed in range(200):
        max_delay = 2 + seed % 23
        ours, theirs = random.Random(seed), random.Random(seed)
        values, scale = _monotone_table(ours, bound, max_delay)
        assert scale == 4 ** (bound - 1)
        expected = reference_monotone_table(theirs, bound, max_delay)
        assert {p: Fraction(v, scale) for p, v in values.items()} == expected
        # the same draws were made: the two streams stay in step
        assert ours.random() == theirs.random()
        written = _random_table(random.Random(seed), bound, max_delay)["entries"]
        assert written == [[x, y, format_fraction(v)] for (x, y), v in sorted(expected.items())]


@pytest.mark.parametrize("bound", range(2, 16))
def test_int_tritable_equals_rational_reference(bound):
    for seed in range(50):
        levels, max_delay = 1 + seed % 4, 2 + seed % 23
        ours = _random_tritable(random.Random(seed), levels, bound, max_delay)
        assert ours == reference_tritable(random.Random(seed), levels, bound, max_delay)
        assert [e[:3] for e in ours["entries"]] == [
            [l, x, y] for l in range(1, levels + 1) for x, y in domain_points(bound)
        ]

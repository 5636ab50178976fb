"""Exact extended costs: nonnegative rationals plus a saturating +infinity.

All delays, player costs, and potential entries in this package are
``ExtCost`` values.  Finite values are stored as ``fractions.Fraction``
(never floats: lexicographic potential comparisons are unsafe under
rounding, and the affine delay formula produces half-integers).  The
distinguished infinite value compares strictly above every finite value,
equals itself, and absorbs addition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

CostLike = Union["ExtCost", Fraction, int, str]


def parse_fraction(text: str) -> Fraction:
    """Parse a nonnegative rational written as ``p`` or ``p/q``.

    ``p`` and ``q`` are unsigned ASCII decimal integers and ``q >= 1``; a
    sign or whitespace anywhere is malformed, ``-0``, ``-3/-2`` and
    ``" 3/1"`` included.  ``4/2`` is accepted and reads as 2, while
    :func:`format_fraction` emits the reduced form.  Raises ValueError for
    malformed input or a zero denominator.  This is the only accepted wire
    format for rationals.
    """
    num_s, slash, den_s = text.partition("/")
    if not (_is_int(num_s) and (not slash or _is_int(den_s))):
        raise ValueError(f"malformed rational {text!r}")
    if not slash:
        return Fraction(int(num_s))
    den = int(den_s)
    if den == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(int(num_s), den)


def _is_int(s: str) -> bool:
    """An unsigned ASCII decimal integer."""
    return s.isascii() and s.isdigit()


def format_fraction(value: Fraction) -> str:
    """Canonical ``p/q`` form (always with an explicit denominator)."""
    return f"{value.numerator}/{value.denominator}"


class ExtCost:
    """A nonnegative exact rational, or +infinity.

    Instances are immutable and totally ordered.  Addition saturates:
    ``INFINITY + c == INFINITY``.

    Besides ``frac`` each cost keeps its value as two plain ints, ``num``
    and ``den``: the Fraction's reduced numerator and positive denominator,
    and (1, 0) for +infinity.  Comparisons cross-multiply them, which is
    exact: with b, d > 0, a/b < c/d exactly when a*d < c*b, and the (1, 0)
    pair makes every finite a/b smaller (a*0 < 1*b) and infinity equal to
    itself (1*0 == 1*0).  Equality compares the pairs themselves, since
    equal rationals have the same reduced numerator and denominator.  So
    no comparison goes through ``Fraction`` and none rounds.
    """

    __slots__ = ("frac", "num", "den", "_text")

    def __init__(self, frac: Fraction | None):
        # None encodes +infinity
        num, den = (1, 0) if frac is None else (frac.numerator, frac.denominator)
        object.__setattr__(self, "frac", frac)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_text", None)  # the wire form, once asked for

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExtCost is immutable")

    def __reduce__(self):
        # copies and unpickled values are rebuilt from the wire form, so an
        # infinite cost comes back as INFINITY itself
        return (cost, (self.to_string(),))

    @classmethod
    def of(cls, value: CostLike) -> "ExtCost":
        """Coerce an int, Fraction, ``p/q``/``inf`` string, or ExtCost."""
        if isinstance(value, ExtCost):
            return value
        if isinstance(value, str):
            if value == "inf":
                return INFINITY
            return cls(parse_fraction(value))
        frac = Fraction(value)
        if frac < 0:
            raise ValueError(f"costs must be nonnegative, got {value!r}")
        return cls(frac)

    @property
    def is_finite(self) -> bool:
        return self.frac is not None

    def finite(self) -> Fraction:
        """The underlying Fraction; raises on infinity."""
        if self.frac is None:
            raise ValueError("infinite cost has no finite value")
        return self.frac

    def __add__(self, other: "ExtCost") -> "ExtCost":
        if not isinstance(other, ExtCost):
            return NotImplemented
        if self.frac is None or other.frac is None:
            return INFINITY
        return ExtCost(self.frac + other.frac)

    def __radd__(self, other):
        # support sum() with int 0 start
        if other == 0:
            return self
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtCost):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other: "ExtCost") -> bool:
        if not isinstance(other, ExtCost):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "ExtCost") -> bool:
        if not isinstance(other, ExtCost):
            return NotImplemented
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: "ExtCost") -> bool:
        if not isinstance(other, ExtCost):
            return NotImplemented
        return other.num * self.den < self.num * other.den

    def __ge__(self, other: "ExtCost") -> bool:
        if not isinstance(other, ExtCost):
            return NotImplemented
        return other.num * self.den <= self.num * other.den

    def __hash__(self) -> int:
        return hash(self.frac)

    def to_string(self) -> str:
        """Canonical wire form: ``p/q`` (gcd-reduced, q >= 1) or ``inf``.

        Built from ``num`` and ``den`` on first use and kept, so a delay
        point the game shares is formatted once however many rows show it.
        """
        text = self._text
        if text is None:
            text = "inf" if self.den == 0 else f"{self.num}/{self.den}"
            object.__setattr__(self, "_text", text)
        return text

    def approx(self) -> float:
        """Float approximation, for display under an explicit flag only."""
        if self.frac is None:
            return float("inf")
        return float(self.frac)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"ExtCost({self.to_string()!r})"


INFINITY = ExtCost(None)
ZERO = ExtCost(Fraction(0))


def cost(value: CostLike) -> ExtCost:
    """Shorthand constructor, ``cost(3)``, ``cost('7/2')``, ``cost('inf')``."""
    return ExtCost.of(value)


def sum_costs(values: Iterable[ExtCost]) -> ExtCost:
    """Saturating sum; empty sums are zero, and a single part is returned as is.

    The parts' ``num``/``den`` ints are added over a running denominator and
    reduced once, by the Fraction built at the end.
    """
    parts = list(values)
    if len(parts) == 1:
        return parts[0]
    num, den = 0, 1
    for v in parts:
        if v.den == 0:
            return INFINITY
        if v.den == den:
            num += v.num
        else:
            num, den = num * v.den + v.num * den, den * v.den
    return ExtCost(Fraction(num, den))


def improvement(before: ExtCost, after: ExtCost) -> ExtCost:
    """How much a move gained: ``before - after`` for ``after < before``.

    An infinite ``before`` with finite ``after`` yields INFINITY; the
    difference is always >= 0.  No solver path calls it: the better-response
    descent ranks its gains as unreduced int pairs, with no Fraction built
    per gain.  It stays public as the reference those ranks are tested
    against.
    """
    if not after < before:
        raise ValueError("improvement requires after < before")
    if before.den == 0:
        return INFINITY
    return ExtCost(
        Fraction(before.num * after.den - after.num * before.den, before.den * after.den)
    )

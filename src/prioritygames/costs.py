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

    Raises ValueError for malformed input, zero denominators, or negative
    values.  This is the only accepted wire format for rationals.
    """
    s = text.strip()
    if "/" in s:
        num_s, _, den_s = s.partition("/")
        if not (_is_int(num_s) and _is_int(den_s)):
            raise ValueError(f"malformed rational {text!r}")
        num, den = int(num_s), int(den_s)
        if den == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
    else:
        if not _is_int(s):
            raise ValueError(f"malformed rational {text!r}")
        num, den = int(s), 1
    value = Fraction(num, den)
    if value < 0:
        raise ValueError(f"negative rational {text!r}")
    return value


def _is_int(s: str) -> bool:
    s = s.strip()
    if s.startswith("-"):
        s = s[1:]
    return s.isascii() and s.isdigit()


def format_fraction(value: Fraction) -> str:
    """Canonical ``p/q`` form (always with an explicit denominator)."""
    return f"{value.numerator}/{value.denominator}"


class ExtCost:
    """A nonnegative exact rational, or +infinity.

    Instances are immutable and totally ordered.  Addition saturates:
    ``INFINITY + c == INFINITY``.
    """

    __slots__ = ("frac",)

    def __init__(self, frac: Fraction | None):
        # None encodes +infinity
        object.__setattr__(self, "frac", frac)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExtCost is immutable")

    @classmethod
    def of(cls, value: CostLike) -> "ExtCost":
        """Coerce an int, Fraction, ``p/q``/``inf`` string, or ExtCost."""
        if isinstance(value, ExtCost):
            return value
        if isinstance(value, str):
            if value.strip() == "inf":
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

    # Games hand out one shared object per delay point, so comparing an
    # object with itself is common and answered without touching the value.

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ExtCost):
            return NotImplemented
        return self.frac == other.frac

    def __lt__(self, other: "ExtCost") -> bool:
        if self is other:
            return False
        if not isinstance(other, ExtCost):
            return NotImplemented
        if self.frac is None:
            return False
        if other.frac is None:
            return True
        return self.frac < other.frac

    def __le__(self, other: "ExtCost") -> bool:
        if self is other:
            return True
        if not isinstance(other, ExtCost):
            return NotImplemented
        if other.frac is None:
            return True
        if self.frac is None:
            return False
        return self.frac <= other.frac

    def __gt__(self, other: "ExtCost") -> bool:
        if not isinstance(other, ExtCost):
            return NotImplemented
        return other < self

    def __ge__(self, other: "ExtCost") -> bool:
        if not isinstance(other, ExtCost):
            return NotImplemented
        return other <= self

    def __hash__(self) -> int:
        return hash(self.frac)

    def to_string(self) -> str:
        """Canonical wire form: ``p/q`` (gcd-reduced, q >= 1) or ``inf``."""
        if self.frac is None:
            return "inf"
        return format_fraction(self.frac)

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
    """Saturating sum; empty sums are zero, and a single part is returned as is."""
    parts = list(values)
    if len(parts) == 1:
        return parts[0]
    total_frac = Fraction(0)
    for v in parts:
        if v.frac is None:
            return INFINITY
        total_frac += v.frac
    return ExtCost(total_frac)


def improvement(before: ExtCost, after: ExtCost) -> ExtCost:
    """How much a move gained: ``before - after`` for ``after < before``.

    An infinite ``before`` with finite ``after`` yields INFINITY; used only
    to rank strictly improving moves, so the difference is always >= 0.
    """
    if not after < before:
        raise ValueError("improvement requires after < before")
    if before.frac is None:
        return INFINITY
    return ExtCost(before.frac - after.frac)

"""Exception hierarchy and structured validation diagnostics.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured results; validation failures additionally carry a list of
:class:`Violation` records rather than a single opaque message.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One concrete rule breach found during validation.

    ``code`` names the broken rule, ``where`` locates it (resource, player,
    table point, ...), ``message`` explains it.  Violations are data, not
    exceptions; validators return lists of them and only game construction
    turns a nonempty list into :class:`ValidationFailed`.
    """

    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


class GameError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class ValidationFailed(GameError):
    code = "VALIDATION_FAILED"

    def __init__(self, message: str, violations: tuple[Violation, ...] | list[Violation] = ()):
        super().__init__(message)
        self.violations: list[Violation] = list(violations)

    def __str__(self) -> str:
        head = super().__str__()
        if not self.violations:
            return head
        lines = "\n".join(f"  - {v}" for v in self.violations)
        return f"{head}\n{lines}"


class ParseError(GameError):
    code = "PARSE_ERROR"


class OutOfBoundError(GameError):
    code = "OUT_OF_BOUND"


class NoExchangeError(GameError):
    code = "NO_EXCHANGE"


class NotImprovingError(GameError):
    code = "NOT_IMPROVING"


class PlayerNotPlacedError(GameError):
    code = "PLAYER_NOT_PLACED"


class NotSingletonError(GameError):
    code = "NOT_SINGLETON"


class LengthMismatchError(GameError):
    code = "LENGTH_MISMATCH"


class ShapeMismatchError(GameError):
    code = "SHAPE_MISMATCH"


class InconsistentPrioritiesError(GameError):
    code = "INCONSISTENT_PRIORITIES"


class LayerCapExhaustedError(GameError):
    code = "LAYER_CAP_EXHAUSTED"


class InvariantViolatedError(GameError):
    """A solver or potential invariant that the paper's argument guarantees failed."""

    code = "INVARIANT_VIOLATED"


class NonMonotoneDelayError(GameError):
    code = "NON_MONOTONE_DELAY"


class PlayerSpecificInputError(GameError):
    code = "PLAYER_SPECIFIC_INPUT"


class BudgetExceededError(GameError):
    code = "BUDGET_EXCEEDED"

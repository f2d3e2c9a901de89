"""Exception types shared across the package."""

from __future__ import annotations


class DiophError(Exception):
    """Base class for all errors raised by this package."""


class MixedRings(DiophError):
    """Operands belong to different rings."""


class ZeroElement(DiophError):
    """Zero is not allowed as a tuple element."""


class DuplicateElement(DiophError):
    """Tuple elements must be pairwise distinct."""


class NotDiophantine(DiophError):
    """A pairwise product plus one is not a square; carries the offending pair."""

    def __init__(self, pair: tuple[int, int], message: str = "") -> None:
        self.pair = pair
        super().__init__(message or f"product of elements {pair} plus one is not a square")


class PreconditionViolated(DiophError):
    """A hypothesis check failed; carries the list of failing hypotheses."""

    def __init__(self, failures: list[str]) -> None:
        self.failures = list(failures)
        super().__init__("precondition violated: " + "; ".join(self.failures))


class PostconditionViolated(DiophError):
    """An exact arithmetic identity the code relies on does not hold."""


class TheoremInapplicable(DiophError):
    """A check the theorem needs fails: L > 1, lambda, the auxiliary one or a margin."""


class UndecidableComparison(DiophError):
    """Interval comparison stayed ambiguous up to the precision cap."""

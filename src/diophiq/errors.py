"""Exception types shared across the package."""

from __future__ import annotations


class DiophError(Exception):
    """Base class for all errors raised by this package."""


class MixedRings(DiophError):
    """Operands belong to different rings."""


class ZeroElement(DiophError):
    """Zero is not allowed as a tuple element."""


class EqualElements(DiophError):
    """Pair operations require two distinct elements."""


class DuplicateElement(DiophError):
    """Tuple elements must be pairwise distinct."""


class NotDiophantine(DiophError):
    """A pairwise product plus one is not a square; carries the offending pair."""

    def __init__(self, pair: tuple[int, int], message: str = "") -> None:
        self.pair = pair
        super().__init__(message or f"product of elements {pair} plus one is not a square")


class NotAPair(DiophError):
    """The two elements do not form a Diophantine pair."""


class NotATriple(DiophError):
    """The three elements do not form a Diophantine triple."""


class NotAQuadruple(DiophError):
    """The four elements do not form a Diophantine quadruple."""


class NotASolution(DiophError):
    """The value pair does not satisfy the Pell-type equation."""


class PreconditionViolated(DiophError):
    """A hypothesis check failed; carries the list of failing hypotheses."""

    def __init__(self, failures: list[str]) -> None:
        self.failures = list(failures)
        super().__init__("precondition violated: " + "; ".join(self.failures))


class DegenerateInput(DiophError):
    """Inputs for which the requested quantities are undefined."""


class TheoremInapplicable(DiophError):
    """The approximation theorem's hypothesis L > 1 fails."""


class UndecidableComparison(DiophError):
    """Interval comparison stayed ambiguous up to the precision cap."""

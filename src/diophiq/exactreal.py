"""Certified real scalars: exact rationals that widen to intervals on demand.

Quantities like |z| = sqrt(abs_sq(z)) are algebraic and usually irrational.
They are represented here as lazy expression trees over exact rational
leaves.  A node stays exact (a Fraction) as long as the operation preserves
exactness (field ops, integer powers, square roots of perfect squares);
anything else is evaluated as an outward-rounded mpmath interval when a
comparison or an enclosure is requested.

Comparisons are certified: evaluation starts at 128 bits and doubles until
the two enclosures are disjoint, capped at 4096 bits, after which
UndecidableComparison is raised.  Exact-vs-exact comparisons never touch
floating point.

Each node holds the function that evaluates it from its arguments' intervals.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from math import isqrt
from typing import Union

from mpmath import iv, mp
from mpmath.libmp import mpf_lt, to_rational

from .errors import UndecidableComparison

PREC_START = 128
PREC_CAP = 4096

# mpmath's interval context is a module-level global; serialize access so the
# library stays safe under threads (sweep parallelism uses processes anyway).
_IV_LOCK = threading.Lock()

Number = Union[int, Fraction, "ExactReal"]


class _NeedMorePrecision(Exception):
    """Internal: a domain bound (log of a near-zero interval) is unresolved."""


def _certified(fn, cap: int = PREC_CAP):
    """First result of fn(prec) that is not None, prec = 128, 256, ... <= cap (lock held)."""
    with _IV_LOCK:
        old = iv.prec
        try:
            prec = PREC_START
            while prec <= cap:
                iv.prec = prec
                try:
                    result = fn(prec)
                except _NeedMorePrecision:
                    result = None
                if result is not None:
                    return result
                prec *= 2
        finally:
            iv.prec = old
    raise UndecidableComparison(f"still undecided at {cap} bits")


def _exact_sqrt(x: Fraction) -> Fraction | None:
    """sqrt(x) as a Fraction if x is the square of a rational, else None."""
    if x < 0:
        raise ValueError(f"square root of negative exact value {x}")
    pn, pd = x.numerator, x.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _iv_from_fraction(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _raw_to_fraction(raw) -> Fraction:
    p, q = to_rational(raw)
    return Fraction(int(p), int(q))


class ExactReal:
    """A real number, exact when possible, certified interval otherwise."""

    __slots__ = ("fn", "args", "exact", "_cache")

    def __init__(self, fn, args: tuple, exact: Fraction | None) -> None:
        self.fn = fn  # interval function applied to the args' intervals; None on a leaf
        self.args = args
        self.exact = exact
        self._cache: tuple[int, object] | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(x: Number) -> ExactReal:
        if isinstance(x, ExactReal):
            return x
        return ExactReal(None, (), Fraction(x))

    def _binary(self, fn, other: Number) -> ExactReal:
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal(None, (), fn(self.exact, other.exact))
        return ExactReal(fn, (self, other), None)

    def __add__(self, other: Number) -> ExactReal:
        return self._binary(operator.add, other)

    __radd__ = __add__

    def __sub__(self, other: Number) -> ExactReal:
        return self._binary(operator.sub, other)

    def __rsub__(self, other: Number) -> ExactReal:
        return ExactReal.of(other) - self

    def __mul__(self, other: Number) -> ExactReal:
        return self._binary(operator.mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> ExactReal:
        return self._binary(operator.truediv, other)

    def __rtruediv__(self, other: Number) -> ExactReal:
        return ExactReal.of(other) / self

    def __neg__(self) -> ExactReal:
        if self.exact is not None:
            return ExactReal(None, (), -self.exact)
        return ExactReal(operator.neg, (self,), None)

    def __pow__(self, n: int) -> ExactReal:
        if not isinstance(n, int):
            return NotImplemented
        if self.exact is not None:
            return ExactReal(None, (), self.exact**n)
        return ExactReal(operator.pow, (self, n), None)

    def sqrt(self) -> ExactReal:
        if self.exact is not None:
            r = _exact_sqrt(self.exact)
            if r is not None:
                return ExactReal(None, (), r)
        return ExactReal(iv_sqrt_nonneg, (self,), None)

    def log(self) -> ExactReal:
        if self.exact is not None and self.exact == 1:
            return ExactReal(None, (), Fraction(0))
        return ExactReal(_iv_log, (self,), None)

    def exp(self) -> ExactReal:
        if self.exact is not None and self.exact == 0:
            return ExactReal(None, (), Fraction(1))
        return ExactReal(iv.exp, (self,), None)

    def pow(self, e: Number) -> ExactReal:
        """self**e for a possibly irrational exponent, via exp(e*log self); needs self > 0."""
        e = ExactReal.of(e)
        if e.exact is not None and e.exact.denominator == 1:
            return self ** int(e.exact)
        return (self.log() * e).exp()

    def fmax(self, other: Number) -> ExactReal:
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal(None, (), max(self.exact, other.exact))
        return ExactReal(iv_max, (self, other), None)

    # -- interval evaluation ----------------------------------------------

    def _eval(self, prec: int):
        """Enclosing interval at the current iv precision (caller holds the lock)."""
        if self._cache is not None and self._cache[0] == prec:
            return self._cache[1]
        if self.exact is not None:
            val = _iv_from_fraction(self.exact)
        elif len(self.args) == 1:
            val = self.fn(self.args[0]._eval(prec))
        else:
            x, y = self.args  # an integer power keeps its exponent y as an int
            val = self.fn(x._eval(prec), y if isinstance(y, int) else y._eval(prec))
        self._cache = (prec, val)
        return val

    # -- certified comparisons --------------------------------------------

    def _same_tree(self, other: ExactReal) -> bool:
        if self is other:
            return True
        if self.exact is not None or other.exact is not None:
            return self.exact == other.exact and self.exact is not None
        # == rather than is, so that equal bound methods match too; equal
        # functions take the same number and kinds of arguments
        return self.fn == other.fn and all(
            a._same_tree(b) if isinstance(a, ExactReal) else a == b
            for a, b in zip(self.args, other.args)
        )

    def compare(self, other: Number, cap: int = PREC_CAP) -> int:
        """-1, 0 or +1 with a certified direction; 0 only for certified ties."""
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            d = self.exact - other.exact
            return (d > 0) - (d < 0)
        if self._same_tree(other):
            return 0

        def decide(prec: int) -> int | None:
            a_lo, a_hi = self._eval(prec)._mpi_
            b_lo, b_hi = other._eval(prec)._mpi_
            if mpf_lt(a_hi, b_lo):
                return -1
            if mpf_lt(b_hi, a_lo):
                return 1
            if a_lo == a_hi == b_lo == b_hi:
                return 0  # both values pinned to the same dyadic point
            return None

        return _certified(decide, cap)

    def __lt__(self, other: Number) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: Number) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: Number) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: Number) -> bool:
        return self.compare(other) >= 0

    def enclosure(self) -> tuple[Fraction, Fraction]:
        """Certified rational endpoints [lo, hi] containing the true value."""
        if self.exact is not None:
            return (self.exact, self.exact)

        def endpoints(prec: int) -> tuple[Fraction, Fraction]:
            lo, hi = self._eval(prec)._mpi_
            return (_raw_to_fraction(lo), _raw_to_fraction(hi))

        return _certified(endpoints)

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"ExactReal({self.exact})"
        return f"ExactReal(<{self.fn.__name__}>)"


def _iv_log(x):
    """Interval log of a value known to be > 0; retries tighter while x reaches 0."""
    if not x.a > 0:
        raise _NeedMorePrecision()
    return iv.log(x)


def iv_sqrt_nonneg(x):
    """Interval sqrt for a value known to be >= 0; clamps rounding underspill."""
    if not x.a >= 0:
        x = iv.mpf([0, mp.make_mpf(x._mpi_[1])])
    return iv.sqrt(x)


def iv_max(x, y):
    """Elementwise interval maximum."""
    lo = y._mpi_[0] if mpf_lt(x._mpi_[0], y._mpi_[0]) else x._mpi_[0]
    hi = y._mpi_[1] if mpf_lt(x._mpi_[1], y._mpi_[1]) else x._mpi_[1]
    return iv.mpf([mp.make_mpf(lo), mp.make_mpf(hi)])


def const(x: int | Fraction) -> ExactReal:
    return ExactReal.of(x)


def sqrt_of(x: Number) -> ExactReal:
    return ExactReal.of(x).sqrt()


def abs_value(n_sq: int) -> ExactReal:
    """|z| as an ExactReal given abs_sq(z); exact when n_sq is a perfect square."""
    return ExactReal.of(n_sq).sqrt()

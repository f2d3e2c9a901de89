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

Intervals are mpmath's raw (lo, hi) endpoint pairs, computed by the
outward-rounding functions of mpmath.libmp with the precision passed on each
call.  No global precision or context is read or written, so no lock is
needed and evaluation is safe under threads.  Each node holds the function
that evaluates it from its arguments' intervals.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt
from typing import Union

from mpmath.libmp import (
    from_int, fzero, mpf_gt, mpf_lt, mpi_add, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg,
    mpi_pow_int, mpi_sqrt, mpi_sub, round_ceiling, round_floor, to_rational,
)

from .errors import UndecidableComparison

PREC_START = 128
PREC_CAP = 4096

Number = Union[int, Fraction, "ExactReal"]


class _NeedMorePrecision(Exception):
    """Internal: a domain bound (log of a near-zero interval) is unresolved."""


def _certified(fn, cap: int = PREC_CAP):
    """First result of fn(prec) that is not None, prec = 128, 256, ... <= cap."""
    prec = PREC_START
    while prec <= cap:
        try:
            result = fn(prec)
        except _NeedMorePrecision:
            result = None
        if result is not None:
            return result
        prec *= 2
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


def _iv_from_int(n: int, prec: int):
    """n rounded down and up to prec bits, as mpmath.iv.mpf(n) rounds it."""
    return (from_int(n, prec, round_floor), from_int(n, prec, round_ceiling))


def _iv_from_fraction(x: Fraction, prec: int):
    """Enclosure of x: p's, divided by q's unless q == 1 (as iv.mpf(p) / iv.mpf(q))."""
    p = _iv_from_int(x.numerator, prec)
    if x.denominator == 1:
        return p
    return mpi_div(p, _iv_from_int(x.denominator, prec), prec)


def _raw_to_fraction(raw) -> Fraction:
    p, q = to_rational(raw)
    return Fraction(int(p), int(q))


class ExactReal:
    """A real number, exact when possible, certified interval otherwise."""

    __slots__ = ("fn", "args", "exact", "_cache")

    def __init__(self, fn, args: tuple, exact: Fraction | None) -> None:
        self.fn = fn  # fn(*intervals of args, prec) -> interval; None on a leaf
        self.args = args
        self.exact = exact
        self._cache: tuple[int, tuple] | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(x: Number) -> ExactReal:
        if isinstance(x, ExactReal):
            return x
        return ExactReal(None, (), Fraction(x))

    def _binary(self, op, fn, other: Number) -> ExactReal:
        """op(self, other) exactly when both are exact, else a node evaluating fn."""
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal(None, (), op(self.exact, other.exact))
        return ExactReal(fn, (self, other), None)

    def __add__(self, other: Number) -> ExactReal:
        return self._binary(operator.add, mpi_add, other)

    __radd__ = __add__

    def __sub__(self, other: Number) -> ExactReal:
        return self._binary(operator.sub, mpi_sub, other)

    def __rsub__(self, other: Number) -> ExactReal:
        return ExactReal.of(other) - self

    def __mul__(self, other: Number) -> ExactReal:
        return self._binary(operator.mul, mpi_mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> ExactReal:
        return self._binary(operator.truediv, mpi_div, other)

    def __rtruediv__(self, other: Number) -> ExactReal:
        return ExactReal.of(other) / self

    def __neg__(self) -> ExactReal:
        if self.exact is not None:
            return ExactReal(None, (), -self.exact)
        return ExactReal(mpi_neg, (self,), None)

    def __pow__(self, n: int) -> ExactReal:
        if not isinstance(n, int):
            return NotImplemented
        if self.exact is not None:
            return ExactReal(None, (), self.exact**n)
        return ExactReal(mpi_pow_int, (self, n), None)

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
        return ExactReal(_iv_exp, (self,), None)

    def pow(self, e: Number) -> ExactReal:
        """self**e for a possibly irrational exponent, via exp(e*log self); needs self > 0."""
        e = ExactReal.of(e)
        if e.exact is not None and e.exact.denominator == 1:
            return self ** int(e.exact)
        return (self.log() * e).exp()

    def fmax(self, other: Number) -> ExactReal:
        return self._binary(max, iv_max, other)

    # -- interval evaluation ----------------------------------------------

    def _eval(self, prec: int):
        """Enclosing interval (lo, hi) of raw mpf endpoints at prec bits."""
        cache = self._cache  # read once: another thread may replace it meanwhile
        if cache is not None and cache[0] == prec:
            return cache[1]
        if self.exact is not None:
            val = _iv_from_fraction(self.exact, prec)
        elif len(self.args) == 1:
            val = self.fn(self.args[0]._eval(prec), prec)
        else:
            x, y = self.args  # an integer power keeps its exponent y as an int
            val = self.fn(x._eval(prec), y if isinstance(y, int) else y._eval(prec), prec)
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
            a_lo, a_hi = self._eval(prec)
            b_lo, b_hi = other._eval(prec)
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
            lo, hi = self._eval(prec)
            return (_raw_to_fraction(lo), _raw_to_fraction(hi))

        return _certified(endpoints)

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"ExactReal({self.exact})"
        return f"ExactReal(<{self.fn.__name__.removeprefix('mpi_')}>)"


def _iv_log(x, prec: int):
    """Interval log of a value known to be > 0; retries tighter while x reaches 0."""
    if not mpf_gt(x[0], fzero):
        raise _NeedMorePrecision()
    return mpi_log(x, prec)


def _iv_exp(x, prec: int):
    """Interval exp, named so that an exp node prints as one."""
    return mpi_exp(x, prec)


def iv_sqrt_nonneg(x, prec: int):
    """Interval sqrt for a value known to be >= 0; clamps rounding underspill."""
    if mpf_lt(x[0], fzero):
        x = (fzero, x[1])
    return mpi_sqrt(x, prec)


def iv_max(x, y, prec: int):
    """Elementwise interval maximum; exact, so prec is unused."""
    return (y[0] if mpf_lt(x[0], y[0]) else x[0], y[1] if mpf_lt(x[1], y[1]) else x[1])


def const(x: int | Fraction) -> ExactReal:
    return ExactReal.of(x)


def sqrt_of(x: Number) -> ExactReal:
    return ExactReal.of(x).sqrt()

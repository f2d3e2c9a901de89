"""Certified real scalars as straight-line interval code.

Quantities like |z| = sqrt(abs_sq(z)) are algebraic and usually irrational.
Each is one function fn(prec) built from the helpers below, whose value at
one precision is an exact rational (int or Fraction) or an outward-rounded
interval: mpmath's raw (lo, hi) endpoint pair, computed by mpmath.libmp with
the precision passed on each call.  A binary helper folds two exact operands
exactly and otherwise makes its one mpi_* call, operands in the order given;
sqrt stays exact on squares of rationals.  No global precision or context is
read or written and nothing is cached, so evaluation is safe under threads.

ExactReal wraps one such function.  Its comparisons and enclosures are
certified: evaluation starts at 128 bits and doubles until the answer is
decided, capped at 4096 bits, after which UndecidableComparison is raised.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt

from mpmath.libmp import (
    from_int, fzero, mpf_gt, mpf_lt, mpi_add, mpi_div, mpi_exp, mpi_log, mpi_mul,
    mpi_pow_int, mpi_sqrt, mpi_sub, round_ceiling, round_floor, to_rational,
)

from .errors import UndecidableComparison

PREC_START = 128
PREC_CAP = 4096


class _NeedMorePrecision(Exception):
    """Internal: a domain bound (log of a near-zero interval) is unresolved."""


def _certified(fn):
    """First result of fn(prec) that is not None, prec = 128, 256, ... <= PREC_CAP."""
    prec = PREC_START
    while prec <= PREC_CAP:
        try:
            result = fn(prec)
        except _NeedMorePrecision:
            result = None
        if result is not None:
            return result
        prec *= 2
    raise UndecidableComparison(f"still undecided at {PREC_CAP} bits")


def _iv_int(n: int, prec: int):
    """n rounded down and up to prec bits, as mpmath.iv.mpf(n) rounds it;
    one rounding when n fits in prec bits, where both are n itself."""
    lo = from_int(n, prec, round_floor)
    return (lo, lo if n.bit_length() <= prec else from_int(n, prec, round_ceiling))


def _iv(x, prec: int):
    """x as an interval; an exact p/q as iv.mpf(p) / iv.mpf(q), or iv.mpf(p) when q == 1."""
    if isinstance(x, tuple):
        return x
    p = _iv_int(x.numerator, prec)
    return p if x.denominator == 1 else mpi_div(p, _iv_int(x.denominator, prec), prec)


def _op(exact, interval):
    """f(x, y, prec): exact(x, y) when both are exact, else interval(x, y, prec)."""

    def apply(x, y, prec: int):
        if isinstance(x, tuple):
            return interval(x, y if isinstance(y, tuple) else _iv(y, prec), prec)
        return interval(_iv(x, prec), y, prec) if isinstance(y, tuple) else exact(x, y)

    return apply


def _iv_pick(before):
    """Elementwise interval max (before = mpf_lt) or min (mpf_gt); exact, so prec is unused."""
    return lambda x, y, prec: (y[0] if before(x[0], y[0]) else x[0], y[1] if before(x[1], y[1]) else x[1])


add = _op(operator.add, mpi_add)
sub = _op(operator.sub, mpi_sub)
mul = _op(operator.mul, mpi_mul)
div = _op(lambda x, y: Fraction(x) / y, mpi_div)
fmax = _op(max, _iv_pick(mpf_lt))
fmin = _op(min, _iv_pick(mpf_gt))


def power(x, n: int, prec: int):
    """x**n for an integer n."""
    return mpi_pow_int(x, n, prec) if isinstance(x, tuple) else Fraction(x) ** n


def sqrt(x, prec: int):
    """Exact on the square of a rational; otherwise the interval sqrt of a
    value known to be >= 0, clamping rounding underspill below 0."""
    if not isinstance(x, tuple):
        if x < 0:
            raise ValueError(f"square root of negative exact value {x}")
        rn, rd = isqrt(x.numerator), isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
        x = _iv(x, prec)
    if mpf_lt(x[0], fzero):
        x = (fzero, x[1])
    return mpi_sqrt(x, prec)


def log(x, prec: int):
    """Interval log of a value known to be > 0; retries tighter while x reaches 0."""
    x = _iv(x, prec)
    if not mpf_gt(x[0], fzero):
        raise _NeedMorePrecision()
    return mpi_log(x, prec)


def exp(x, prec: int):
    return mpi_exp(_iv(x, prec), prec)


class ExactReal:
    """A real number defined by fn(prec): exact when fn returns a rational,
    certified through intervals otherwise."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def _eval(self, prec: int):
        """The value at prec bits: an exact rational or an enclosing interval."""
        return self.fn(prec)

    @property
    def exact(self) -> Fraction | None:
        """The value as a Fraction when fn computes it exactly, else None."""
        try:
            value = self.fn(PREC_START)
        except _NeedMorePrecision:
            return None  # only an interval reaches a log's domain bound
        return None if isinstance(value, tuple) else Fraction(value)

    def compare(self, other: ExactReal | int | Fraction) -> int:
        """-1, 0 or +1 with a certified direction; 0 only for certified ties."""

        def decide(prec: int) -> int | None:
            a = self._eval(prec)
            b = other._eval(prec) if isinstance(other, ExactReal) else other
            if not (isinstance(a, tuple) or isinstance(b, tuple)):
                return (a > b) - (a < b)
            (a_lo, a_hi), (b_lo, b_hi) = _iv(a, prec), _iv(b, prec)
            if mpf_lt(a_hi, b_lo):
                return -1
            if mpf_lt(b_hi, a_lo):
                return 1
            if a_lo == a_hi == b_lo == b_hi:
                return 0  # both values pinned to the same dyadic point
            return None

        return _certified(decide)

    def enclosure(self) -> tuple[Fraction, Fraction]:
        """Certified rational endpoints [lo, hi] containing the true value."""

        def endpoints(prec: int) -> tuple[Fraction, Fraction]:
            value = self._eval(prec)
            if not isinstance(value, tuple):
                return (Fraction(value), Fraction(value))
            return tuple(Fraction(*map(int, to_rational(end))) for end in value)

        return _certified(endpoints)

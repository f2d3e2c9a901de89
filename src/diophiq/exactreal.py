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
"""

from __future__ import annotations

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

    __slots__ = ("op", "args", "exact", "_cache")

    def __init__(self, op: str, args: tuple, exact: Fraction | None) -> None:
        self.op = op
        self.args = args
        self.exact = exact
        self._cache: tuple[int, object] | None = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(x: Number) -> ExactReal:
        if isinstance(x, ExactReal):
            return x
        return ExactReal("const", (), Fraction(x))

    def __add__(self, other: Number) -> ExactReal:
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal("const", (), self.exact + other.exact)
        return ExactReal("add", (self, other), None)

    __radd__ = __add__

    def __sub__(self, other: Number) -> ExactReal:
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal("const", (), self.exact - other.exact)
        return ExactReal("sub", (self, other), None)

    def __rsub__(self, other: Number) -> ExactReal:
        return ExactReal.of(other) - self

    def __mul__(self, other: Number) -> ExactReal:
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal("const", (), self.exact * other.exact)
        return ExactReal("mul", (self, other), None)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> ExactReal:
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal("const", (), self.exact / other.exact)
        return ExactReal("div", (self, other), None)

    def __rtruediv__(self, other: Number) -> ExactReal:
        return ExactReal.of(other) / self

    def __neg__(self) -> ExactReal:
        if self.exact is not None:
            return ExactReal("const", (), -self.exact)
        return ExactReal("neg", (self,), None)

    def __pow__(self, n: int) -> ExactReal:
        if not isinstance(n, int):
            return NotImplemented
        if self.exact is not None:
            return ExactReal("const", (), self.exact**n)
        return ExactReal("ipow", (self, n), None)

    def sqrt(self) -> ExactReal:
        if self.exact is not None:
            r = _exact_sqrt(self.exact)
            if r is not None:
                return ExactReal("const", (), r)
        return ExactReal("sqrt", (self,), None)

    def log(self) -> ExactReal:
        if self.exact is not None and self.exact == 1:
            return ExactReal("const", (), Fraction(0))
        return ExactReal("log", (self,), None)

    def exp(self) -> ExactReal:
        if self.exact is not None and self.exact == 0:
            return ExactReal("const", (), Fraction(1))
        return ExactReal("exp", (self,), None)

    def pow(self, e: Number) -> ExactReal:
        """self**e for a possibly irrational exponent, via exp(e*log self); needs self > 0."""
        e = ExactReal.of(e)
        if e.exact is not None and e.exact.denominator == 1:
            return self ** int(e.exact)
        return (self.log() * e).exp()

    def fmax(self, other: Number) -> ExactReal:
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            return ExactReal("const", (), max(self.exact, other.exact))
        return ExactReal("max", (self, other), None)

    # -- interval evaluation ----------------------------------------------

    def _eval(self, prec: int):
        """Enclosing interval at the current iv precision (caller holds the lock)."""
        if self._cache is not None and self._cache[0] == prec:
            return self._cache[1]
        op = self.op
        if self.exact is not None:
            val = _iv_from_fraction(self.exact)
        elif op == "add":
            val = self.args[0]._eval(prec) + self.args[1]._eval(prec)
        elif op == "sub":
            val = self.args[0]._eval(prec) - self.args[1]._eval(prec)
        elif op == "mul":
            val = self.args[0]._eval(prec) * self.args[1]._eval(prec)
        elif op == "div":
            val = self.args[0]._eval(prec) / self.args[1]._eval(prec)
        elif op == "neg":
            val = -self.args[0]._eval(prec)
        elif op == "ipow":
            val = self.args[0]._eval(prec) ** self.args[1]
        elif op == "sqrt":
            val = iv_sqrt_nonneg(self.args[0]._eval(prec))
        elif op == "log":
            arg = self.args[0]._eval(prec)
            if not arg.a > 0:
                # the true value is positive by construction; retry tighter
                raise _NeedMorePrecision()
            val = iv.log(arg)
        elif op == "exp":
            val = iv.exp(self.args[0]._eval(prec))
        elif op == "max":
            val = iv_max(self.args[0]._eval(prec), self.args[1]._eval(prec))
        else:  # pragma: no cover
            raise AssertionError(f"unknown op {op}")
        self._cache = (prec, val)
        return val

    # -- certified comparisons --------------------------------------------

    def _same_tree(self, other: ExactReal) -> bool:
        if self is other:
            return True
        if self.exact is not None or other.exact is not None:
            return self.exact == other.exact and self.exact is not None
        if self.op != other.op or len(self.args) != len(other.args):
            return False
        for a, b in zip(self.args, other.args):
            if isinstance(a, ExactReal) != isinstance(b, ExactReal):
                return False
            if isinstance(a, ExactReal):
                if not a._same_tree(b):
                    return False
            elif a != b:
                return False
        return True

    def compare(self, other: Number, cap: int = PREC_CAP) -> int:
        """-1, 0 or +1 with a certified direction; 0 only for certified ties."""
        other = ExactReal.of(other)
        if self.exact is not None and other.exact is not None:
            d = self.exact - other.exact
            return (d > 0) - (d < 0)
        if self._same_tree(other):
            return 0
        prec = PREC_START
        with _IV_LOCK:
            while prec <= cap:
                old = iv.prec
                try:
                    iv.prec = prec
                    a = self._eval(prec)
                    b = other._eval(prec)
                    if mpf_lt(a._mpi_[1], b._mpi_[0]):
                        return -1
                    if mpf_lt(b._mpi_[1], a._mpi_[0]):
                        return 1
                    if a._mpi_ == b._mpi_ and a._mpi_[0] == a._mpi_[1]:
                        # both values pinned to the same dyadic point
                        return 0
                except _NeedMorePrecision:
                    pass
                finally:
                    iv.prec = old
                prec *= 2
        raise UndecidableComparison(
            f"comparison still ambiguous at {cap} bits"
        )

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
        with _IV_LOCK:
            p = PREC_START
            while p <= PREC_CAP:
                old = iv.prec
                try:
                    iv.prec = p
                    val = self._eval(p)
                    return (_raw_to_fraction(val._mpi_[0]), _raw_to_fraction(val._mpi_[1]))
                except _NeedMorePrecision:
                    p *= 2
                finally:
                    iv.prec = old
        raise UndecidableComparison(f"no enclosure below {PREC_CAP} bits")

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"ExactReal({self.exact})"
        return f"ExactReal(<{self.op}>)"


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

"""Exact arithmetic in rings of integers of imaginary quadratic fields.

For a squarefree d < 0 the ring of integers of Q(sqrt(d)) has integral
basis (1, w), where w is a root of w^2 + t*w + n = 0 with

    t = 0, n = -d        (w = sqrt(d))          when d = 2, 3 (mod 4),
    t = 1, n = (1-d)/4   (w = (-1+sqrt(d))/2)   when d = 1 (mod 4).

Elements are stored as exact integer coordinates (u, v) over that basis.
The two constants are the only place the basis shows: every operation
below is one formula in (t, n), with the absolute discriminant
|D| = 4n - t^2, and every operation is exact integer arithmetic, never
floating point.

The norm 4*N(u + v*w) = (2u - t*v)^2 + |D|*v^2 bounds both coordinates of
a disk, and in the doubled coordinates z = (X + Y*sqrt(t^2 - 4n))/2,
X = 2u - t*v, Y = v, a square root is found in closed form.  sqrt_in_ring
is the one root function: it returns the canonical root or None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterator

from .errors import MixedRings


def is_squarefree(n: int) -> bool:
    """True iff n > 0 has no repeated prime factor."""
    if n <= 0:
        return False
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


@dataclass(frozen=True, slots=True)
class RingSpec:
    """A ring of integers O_K for K = Q(sqrt(d)), d squarefree and negative.

    t and n are the coefficients of the basis element's minimal polynomial
    w^2 + t*w + n; they follow from d and so take no part in eq or hash.
    """

    d: int
    t: int = field(init=False, compare=False)
    n: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.d >= 0:
            raise ValueError(f"d must be negative, got {self.d}")
        if not is_squarefree(-self.d):
            raise ValueError(f"d must be squarefree, got {self.d}")
        half = self.d % 4 == 1
        object.__setattr__(self, "t", 1 if half else 0)
        object.__setattr__(self, "n", (1 - self.d) // 4 if half else -self.d)

    @property
    def abs_disc(self) -> int:
        """|D| = 4n - t^2, the absolute discriminant of O_K."""
        return 4 * self.n - self.t * self.t

    def elem(self, u: int, v: int = 0) -> RingElem:
        return RingElem(u, v, self)

    @property
    def zero(self) -> RingElem:
        return RingElem(0, 0, self)

    @property
    def one(self) -> RingElem:
        return RingElem(1, 0, self)

    def __repr__(self) -> str:
        return f"RingSpec(d={self.d})"


@dataclass(frozen=True, slots=True)
class RingElem:
    """u + v*w in the ring described by spec; immutable and hashable."""

    u: int
    v: int
    spec: RingSpec

    def _check(self, other: RingElem) -> None:
        if self.spec != other.spec:
            raise MixedRings(f"{self.spec} vs {other.spec}")

    def __add__(self, other: RingElem) -> RingElem:
        self._check(other)
        return RingElem(self.u + other.u, self.v + other.v, self.spec)

    def __sub__(self, other: RingElem) -> RingElem:
        self._check(other)
        return RingElem(self.u - other.u, self.v - other.v, self.spec)

    def __neg__(self) -> RingElem:
        return RingElem(-self.u, -self.v, self.spec)

    def __mul__(self, other: RingElem | int) -> RingElem:
        if isinstance(other, int):
            return RingElem(self.u * other, self.v * other, self.spec)
        self._check(other)
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        s = self.spec
        vv = v1 * v2  # times w^2 = -t*w - n
        return RingElem(u1 * u2 - s.n * vv, u1 * v2 + v1 * u2 - s.t * vv, s)

    def __rmul__(self, other: int) -> RingElem:
        return self * other

    def abs_sq(self) -> int:
        """Squared complex absolute value; equals the field norm, always a nonnegative int."""
        u, v = self.u, self.v
        return u * (u - self.spec.t * v) + self.spec.n * v * v

    def conj(self) -> RingElem:
        return RingElem(self.u - self.spec.t * self.v, -self.v, self.spec)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def canonical_key(self) -> tuple[int, int, int]:
        """Total order used everywhere: (abs_sq, u, v) lexicographic."""
        return (self.abs_sq(), self.u, self.v)

    def coords(self) -> tuple[int, int]:
        return (self.u, self.v)

    def __str__(self) -> str:
        return f"({self.u},{self.v})"


def elements_with_abs_sq(spec: RingSpec, n: int) -> list[RingElem]:
    """All ring elements of squared absolute value exactly n, sorted by (u, v).

    Solves the positive definite norm form (2u - t*v)^2 + |D|*v^2 = 4n
    exactly, with integer square roots only.
    """
    if n < 0:
        return []
    if n == 0:
        return [spec.zero]
    out: list[RingElem] = []
    t, disc = spec.t, spec.abs_disc
    vmax = isqrt((4 * n) // disc)
    for v in range(-vmax, vmax + 1):
        rr = 4 * n - disc * v * v
        r = isqrt(rr)
        if r * r != rr or (t * v + r) % 2:
            continue
        out.append(RingElem((t * v + r) // 2, v, spec))
        if r:
            out.append(RingElem((t * v - r) // 2, v, spec))
    out.sort(key=lambda z: (z.u, z.v))
    return out


def iter_disk_coords(spec: RingSpec, b_sq: int) -> Iterator[tuple[int, int, int]]:
    """Unordered stream of (u, v, abs_sq) for all nonzero z with abs_sq <= b_sq.

    Hot-path helper: runs in O(number of lattice points) with plain int
    arithmetic; use annulus_points for the canonical order.
    """
    if b_sq < 1:
        return
    t, n, disc = spec.t, spec.n, spec.abs_disc
    vmax = isqrt((4 * b_sq) // disc)
    for v in range(-vmax, vmax + 1):
        r = isqrt(4 * b_sq - disc * v * v)
        tv, nv = t * v, n * v * v
        # 2u - t*v ranges over [-r, r]
        for u in range(-((r - tv) // 2), (tv + r) // 2 + 1):
            if u or v:
                yield u, v, u * (u - tv) + nv


def annulus_points(spec: RingSpec, b_sq: int) -> list[tuple[int, int, int]]:
    """(abs_sq, u, v) of every nonzero z with abs_sq(z) <= b_sq, sorted: the
    canonical order, as plain integers."""
    return sorted((n, u, v) for u, v, n in iter_disk_coords(spec, b_sq))


def sqrt_coords(spec: RingSpec, wu: int, wv: int, r: int) -> tuple[int, int] | None:
    """Coordinates (u, v) of a square root z of the element w = (wu, wv),
    given r*r == abs_sq(w); None when w is not a square.

    Write z = (X + Y*s)/2 and w = (P + Q*s)/2 with s = sqrt(t^2 - 4n), so
    P = 2*wu - t*wv and Q = wv.  Then z*z == w and abs_sq(z) == r force
    X^2 = P + 2r, |D|*Y^2 = 2r - P and XY = Q; X = t*Y (mod 2) follows,
    so z = ((X + t*Y)/2, Y) lies in the ring.  The other root is -z.
    """
    disc = spec.abs_disc
    p = 2 * wu - spec.t * wv
    x_sq, y_sq_disc = p + 2 * r, 2 * r - p
    if y_sq_disc % disc:  # r >= |P|/2, so both radicands are >= 0
        return None
    x, y = isqrt(x_sq), isqrt(y_sq_disc // disc)
    if x * x != x_sq or y * y * disc != y_sq_disc:
        return None
    if wv < 0:
        y = -y  # XY = Q with X >= 0
    u = (x + spec.t * y) // 2
    vv = y * y  # exact re-check of z*z == w
    if (u * u - spec.n * vv, 2 * u * y - spec.t * vv) != (wu, wv):
        return None
    return u, y


def sqrt_in_ring(w: RingElem) -> RingElem | None:
    """The canonical root of w, the z with z*z == w maximal in canonical
    order (the other root is -z), or None when w is not a square.

    Necessary condition from norm multiplicativity: abs_sq(w) must be a
    perfect square in Z; sqrt_coords then gives a root in closed form.
    """
    n = w.abs_sq()
    r = isqrt(n)
    root = sqrt_coords(w.spec, w.u, w.v, r) if r * r == n else None
    if root is None:
        return None
    z = RingElem(*root, w.spec)
    return max(z, -z, key=RingElem.canonical_key)

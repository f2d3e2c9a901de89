"""The Pell-type system obtained by eliminating the fourth element.

Extending a Diophantine triple {a, b, c} (sorted by absolute value) by d
forces, after elimination of d, the simultaneous equations

    a z^2 - c x^2 = a - c        and        b z^2 - c y^2 = b - c

with ad+1 = x^2, bd+1 = y^2, cd+1 = z^2.  Solutions of the first equation
can be composed with the automorph s + sqrt(ac) (s^2 = ac + 1); walking
that orbit and filtering by the second equation recovers extensions
d = (z^2 - 1)/c.  The orbit walk makes no completeness claim: every element
it emits is exactly verified, and exhaustive search lives elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import NotAQuadruple, NotASolution, NotATriple, OrbitNotDiverging
from .ring import RingElem, canonical_sqrt
from .tuples import is_diophantine_tuple

GROWTH_GUARD_STEPS = 20


@dataclass(frozen=True)
class PellSystem:
    """Coefficients of the eliminated system for a sorted triple (a, b, c)."""

    a: RingElem
    b: RingElem
    c: RingElem
    s: RingElem  # s^2 = ac + 1
    t: RingElem  # t^2 = bc + 1

    def __post_init__(self) -> None:
        one = self.a.spec.one
        assert self.s * self.s == self.a * self.c + one
        assert self.t * self.t == self.b * self.c + one


@dataclass(frozen=True)
class PellSolution:
    """(x, y, z) with ad+1 = x^2, bd+1 = y^2, cd+1 = z^2 for some extension d."""

    x: RingElem
    y: RingElem
    z: RingElem


def build_system(a: RingElem, b: RingElem, c: RingElem) -> PellSystem:
    """Sort the triple and attach canonical witnesses s, t."""
    if not is_diophantine_tuple(a.spec, [a, b, c]):
        raise NotATriple(f"{a}, {b}, {c}")
    a, b, c = sorted((a, b, c), key=RingElem.canonical_key)
    one = a.spec.one
    s = canonical_sqrt(a * c + one)
    t = canonical_sqrt(b * c + one)
    assert s is not None and t is not None
    return PellSystem(a, b, c, s, t)


def first_equation_holds(sys: PellSystem, z: RingElem, x: RingElem) -> bool:
    return sys.a * z * z - sys.c * x * x == sys.a - sys.c


def second_equation_holds(sys: PellSystem, z: RingElem, y: RingElem) -> bool:
    return sys.b * z * z - sys.c * y * y == sys.b - sys.c


def solution_from_extension(sys: PellSystem, d: RingElem) -> PellSolution:
    """Canonical (x, y, z) for an exact extension d of the system's triple."""
    spec = sys.a.spec
    if not is_diophantine_tuple(spec, [sys.a, sys.b, sys.c, d]):
        raise NotAQuadruple(f"{sys.a}, {sys.b}, {sys.c}, {d}")
    one = spec.one
    x = canonical_sqrt(sys.a * d + one)
    y = canonical_sqrt(sys.b * d + one)
    z = canonical_sqrt(sys.c * d + one)
    assert x is not None and y is not None and z is not None
    sol = PellSolution(x, y, z)
    assert first_equation_holds(sys, sol.z, sol.x)
    assert second_equation_holds(sys, sol.z, sol.y)
    return sol


def compose_step(
    sys: PellSystem,
    zx: tuple[RingElem, RingElem],
    direction: Literal["forward", "backward"] = "forward",
) -> tuple[RingElem, RingElem]:
    """One composition with the automorph s+sqrt(ac) (or its inverse).

    forward:  (z, x) -> (sz + cx, sx + az)
    backward: (z, x) -> (sz - cx, sx - az)
    Both preserve a z^2 - c x^2 exactly.
    """
    z, x = zx
    if not first_equation_holds(sys, z, x):
        raise NotASolution(f"({z}, {x}) does not solve the first equation")
    if direction == "forward":
        out = (sys.s * z + sys.c * x, sys.s * x + sys.a * z)
    else:
        out = (sys.s * z - sys.c * x, sys.s * x - sys.a * z)
    assert first_equation_holds(sys, *out)
    return out


def _walk(sys: PellSystem, seed, direction, max_abs_sq):
    """Orbit members in one direction while abs_sq(z) stays within bound."""
    cur = seed
    best = cur[0].abs_sq()
    stale = 0
    while True:
        cur = compose_step(sys, cur, direction)
        n = cur[0].abs_sq()
        if n > max_abs_sq:
            return
        if n > best:
            best = n
            stale = 0
        else:
            stale += 1
            if stale >= GROWTH_GUARD_STEPS:
                raise OrbitNotDiverging(
                    f"orbit of {sys} stuck below abs_sq {best} for {stale} steps"
                )
        yield cur


def extensions_from_orbit(
    sys: PellSystem, seed: tuple[RingElem, RingElem], max_abs_sq: int
) -> list[RingElem]:
    """Extensions d = (z^2-1)/c found along the automorph orbit of seed.

    Emits d when c divides z^2 - 1 exactly and bd+1 is a square; ad+1 = x^2
    holds automatically on the orbit.  Results are deduplicated, exclude
    0 and the triple's own elements, and come in canonical order.
    """
    z0, x0 = seed
    if not first_equation_holds(sys, z0, x0):
        raise NotASolution(f"seed ({z0}, {x0}) does not solve the first equation")
    spec = sys.a.spec
    one = spec.one
    found: set[RingElem] = set()
    members: list[tuple[RingElem, RingElem]] = []
    if z0.abs_sq() <= max_abs_sq:
        members.append(seed)
    for direction in ("forward", "backward"):
        members.extend(_walk(sys, seed, direction, max_abs_sq))
    for z, _x in members:
        d = (z * z - one).divide_exact(sys.c)
        if d is None or d.is_zero() or d in (sys.a, sys.b, sys.c):
            continue
        if canonical_sqrt(sys.b * d + one) is None:
            continue
        assert is_diophantine_tuple(spec, [sys.a, sys.b, sys.c, d])
        found.add(d)
    return sorted(found, key=RingElem.canonical_key)

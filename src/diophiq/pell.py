"""The Pell-type system obtained by eliminating the fourth element.

Extending a Diophantine triple {a, b, c} (sorted by absolute value) by d
forces, after elimination of d, the simultaneous equations

    a z^2 - c x^2 = a - c        and        b z^2 - c y^2 = b - c

with ad+1 = x^2, bd+1 = y^2, cd+1 = z^2.  Solutions of the first equation
can be composed with the automorph s + sqrt(ac) (s^2 = ac + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import NotDiophantine, PostconditionViolated, PreconditionViolated
from .ring import RingElem, sqrt_in_ring
from .tuples import canonical_elements, make_tuple


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
        if self.s * self.s != self.a * self.c + one or self.t * self.t != self.b * self.c + one:
            raise PostconditionViolated("s^2 = ac + 1 and t^2 = bc + 1")


@dataclass(frozen=True)
class PellSolution:
    """(x, y, z) with ad+1 = x^2, bd+1 = y^2, cd+1 = z^2 for some extension d."""

    x: RingElem
    y: RingElem
    z: RingElem


def build_system(a: RingElem, b: RingElem, c: RingElem) -> PellSystem:
    """Sort the triple and take s, t from its verified witnesses (0, 2) and (1, 2).

    Raises make_tuple's error when {a, b, c} is not a Diophantine triple.
    """
    triple = make_tuple(a.spec, [a, b, c])
    return PellSystem(*triple.elems, triple.witnesses[(0, 2)], triple.witnesses[(1, 2)])


def first_equation_holds(sys: PellSystem, z: RingElem, x: RingElem) -> bool:
    return sys.a * z * z - sys.c * x * x == sys.a - sys.c


def second_equation_holds(sys: PellSystem, z: RingElem, y: RingElem) -> bool:
    return sys.b * z * z - sys.c * y * y == sys.b - sys.c


def solution_from_extension(sys: PellSystem, d: RingElem) -> PellSolution:
    """Canonical (x, y, z) for an exact extension d of the system's triple.

    The triple's own pairs were rooted by build_system, so only e*d + 1 is
    rooted, for each e of the triple.  The refusals are make_tuple's on
    {a, b, c, d}: canonical_elements' errors, and NotDiophantine carrying
    the first failing pair indexed in the sorted quadruple.
    """
    one = sys.a.spec.one
    quad = canonical_elements(sys.a.spec, [sys.a, sys.b, sys.c, d])
    i = quad.index(d)
    roots = {}
    for k, e in enumerate(quad):  # the pairs with d, in make_tuple's order
        if k != i:
            roots[e] = sqrt_in_ring(e * d + one)
            if roots[e] is None:
                raise NotDiophantine((min(i, k), max(i, k)))
    sol = PellSolution(roots[sys.a], roots[sys.b], roots[sys.c])
    if not (first_equation_holds(sys, sol.z, sol.x) and second_equation_holds(sys, sol.z, sol.y)):
        raise PostconditionViolated(f"the Pell system at d = {d}")
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
        raise PreconditionViolated([f"({z}, {x}) solves the first equation"])
    if direction == "forward":
        out = (sys.s * z + sys.c * x, sys.s * x + sys.a * z)
    else:
        out = (sys.s * z - sys.c * x, sys.s * x - sys.a * z)
    if not first_equation_holds(sys, *out):
        raise PostconditionViolated(f"the first equation after a {direction} step")
    return out

"""Diophantine pairs, tuples, regular triples and the extension formulas.

A Diophantine m-tuple is a set of m distinct nonzero ring elements such
that the product of any two distinct elements plus one is a perfect square
in the ring.  Every check here is definition-level and exact: witnesses are
actual square roots, stored and re-verified by squaring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    DuplicateElement,
    EqualElements,
    MixedRings,
    NotAPair,
    NotATriple,
    NotDiophantine,
    PreconditionViolated,
    ZeroElement,
)
from .ring import RingElem, RingSpec, canonical_sqrt, sqrt_in_ring


@dataclass(frozen=True)
class DiophTuple:
    """A verified m-tuple: sorted elements plus one witness per pair.

    witnesses[(i, j)] squares exactly to elems[i]*elems[j] + 1; construction
    goes through make_tuple, so holding a DiophTuple is holding a proof.
    """

    spec: RingSpec
    elems: tuple[RingElem, ...]
    witnesses: Mapping[tuple[int, int], RingElem]

    def to_json_dict(self) -> dict:
        return {
            "d": self.spec.d,
            "elems": [[z.u, z.v] for z in self.elems],
            "witnesses": [[i, j, [w.u, w.v]] for (i, j), w in sorted(self.witnesses.items())],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DiophTuple":
        spec = RingSpec(data["d"])
        return make_tuple(spec, [spec.elem(u, v) for u, v in data["elems"]])


def is_diophantine_pair(a: RingElem, b: RingElem) -> RingElem | None:
    """Canonical witness r with r*r == a*b + 1, or None if none exists."""
    a._check(b)
    if a.is_zero() or b.is_zero():
        raise ZeroElement("tuple elements must be nonzero")
    if a == b:
        raise EqualElements("pair elements must be distinct")
    return canonical_sqrt(a * b + a.spec.one)


def make_tuple(spec: RingSpec, elems: Iterable[RingElem]) -> DiophTuple:
    """Sort, verify all pairwise products, and assemble the witness map.

    Raises NotDiophantine carrying the first violating pair (i, j) in the
    sorted order.
    """
    items = list(elems)
    if not items:
        raise ValueError("empty tuple")
    for z in items:
        if z.spec != spec:
            raise MixedRings(f"{z.spec} vs {spec}")
        if z.is_zero():
            raise ZeroElement("tuple elements must be nonzero")
    if len(set(items)) != len(items):
        raise DuplicateElement(f"elements not pairwise distinct: {items}")
    items.sort(key=RingElem.canonical_key)
    witnesses: dict[tuple[int, int], RingElem] = {}
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            w = canonical_sqrt(items[i] * items[j] + spec.one)
            if w is None:
                raise NotDiophantine((i, j))
            witnesses[(i, j)] = w
    return DiophTuple(spec, tuple(items), witnesses)


def is_diophantine_tuple(spec: RingSpec, elems: Iterable[RingElem]) -> bool:
    try:
        make_tuple(spec, elems)
        return True
    except (NotDiophantine, ZeroElement, DuplicateElement):
        return False


def regular_extensions(a: RingElem, b: RingElem) -> tuple[RingElem, ...]:
    """The nonzero regular completions a+b+2r and a+b-2r of the pair {a, b}.

    Each returned c satisfies ac+1 = (a+r)^2 and bc+1 = (b+r)^2, hence
    {a, b, c} is a Diophantine triple; this is still re-verified exactly.
    """
    r = is_diophantine_pair(a, b)
    if r is None:
        raise NotAPair(f"{a}, {b}")
    out = []
    for c in (a + b + 2 * r, a + b - 2 * r):
        if c.is_zero() or c == a or c == b or c in out:
            continue
        assert is_diophantine_tuple(a.spec, [a, b, c])
        out.append(c)
    return tuple(sorted(out, key=RingElem.canonical_key))


def quadruple_extension_candidates(
    a: RingElem, b: RingElem, c: RingElem
) -> tuple[tuple[RingElem, ...], tuple[RingElem, ...]]:
    """Candidates a+b+c+2abc±2rst, split into verified and failed extensions.

    The formula is derived under sign conventions the ring does not fix, so
    every candidate is checked against the definition instead of trusted;
    both sign choices of rst give the same unordered candidate set.
    """
    verified, failed = [], []
    for d in set(c_plus_minus(a, b, c)):
        if d.is_zero() or d in (a, b, c):
            continue
        if is_diophantine_tuple(a.spec, [a, b, c, d]):
            verified.append(d)
        else:
            failed.append(d)
    key = RingElem.canonical_key
    return tuple(sorted(verified, key=key)), tuple(sorted(failed, key=key))


def c_plus_minus(a: RingElem, b: RingElem, d: RingElem) -> tuple[RingElem, RingElem]:
    """(c+, c-) = a+b+d+2abd ± 2rxy for the triple {a, b, d}.

    r*x*y, the product of the canonical pair witnesses, is independent of order.
    Postcondition checked exactly: c+ * c- == a^2+b^2+d^2-2ab-2ad-2bd-4.
    """
    try:
        r, x, y = make_tuple(a.spec, [a, b, d]).witnesses.values()
    except (NotDiophantine, ZeroElement, DuplicateElement):
        raise NotATriple(f"{a}, {b}, {d}") from None
    base = a + b + d + 2 * (a * b * d)
    c_plus = base + 2 * (r * x * y)
    c_minus = base - 2 * (r * x * y)
    four = a.spec.elem(4)
    rhs = a * a + b * b + d * d - 2 * (a * b) - 2 * (a * d) - 2 * (b * d) - four
    assert c_plus * c_minus == rhs
    return c_plus, c_minus


def forbidden_double_regular(a: RingElem, b: RingElem, c: RingElem, d: RingElem) -> bool:
    """True iff {c, d} is exactly {a+b-2r, a+b+2r} for a root r of ab+1.

    Refutation check: no verified Diophantine quadruple with all elements of
    absolute value >= 2 may return True.
    """
    for z in (a, b, c, d):
        if z.is_zero():
            raise PreconditionViolated(["all elements must be nonzero"])
    if not (4 <= a.abs_sq() <= b.abs_sq() <= c.abs_sq() <= d.abs_sq()):
        raise PreconditionViolated(["need 2 <= |a| <= |b| <= |c| <= |d|"])
    roots = sqrt_in_ring(a * b + a.spec.one)
    for r in roots:
        if {c, d} == {a + b - 2 * r, a + b + 2 * r}:
            return True
    return False


def pair_products_not_square(t: DiophTuple) -> tuple[int, int] | None:
    """First pair (i, j) whose plain product is a square, or None.

    For tuples of size >= 3 no pairwise product may be a square; a non-None
    answer on a verified triple would contradict the underlying theory and
    is treated by callers as a reportable violation.
    """
    for i in range(len(t.elems)):
        for j in range(i + 1, len(t.elems)):
            if sqrt_in_ring(t.elems[i] * t.elems[j]):
                return (i, j)
    return None

"""Diophantine pairs, tuples, regular triples and the extension formulas.

A Diophantine m-tuple is a set of m distinct nonzero ring elements such
that the product of any two distinct elements plus one is a perfect square
in the ring.  Every check here is definition-level and exact: witnesses are
actual square roots, stored and re-verified by squaring.  make_tuple finds
them for user input only (verify, extend, pell).  Every function after it
takes the verified DiophTuple, reads its witnesses and canonical order, and
roots none of its pairs again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateElement,
    MixedRings,
    NotDiophantine,
    PostconditionViolated,
    PreconditionViolated,
    ZeroElement,
)
from .ring import RingElem, RingSpec, sqrt_in_ring

# a tuple as plain integers: its elements' coordinates, then its witnesses'
Row = tuple[tuple[int, ...], tuple[int, ...]]


@functools.cache  # the pairs (i, j) of size elements, in to_row's order
def _pairs(size: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(size), 2))


def check_row(spec: RingSpec, elems: Sequence[int], witnesses: Sequence[int]) -> list[tuple[int, int, int]]:
    """The canonical keys of the elements of to_row's row, checked in spec's
    ring by squaring, with no square root and no object built.  Every
    coordinate must be an int, the elements nonzero and strictly increasing
    in canonical order, and one canonical witness w given per pair (i, j), in
    to_row's order, with w*w == elems[i]*elems[j] + 1.  Raises
    NotDiophantine((i, j)) at the first pair whose witness fails that test.
    """
    m = len(elems) // 2  # m(m-1)/2 pairs, counted before any is built
    if not elems or len(elems) % 2 or len(witnesses) != m * (m - 1):
        raise ValueError(f"{len(witnesses)} witness coordinates for {len(elems)} element coordinates")
    if {*map(type, elems), *map(type, witnesses)} != {int}:  # a cached row's 1.0 or true squares too
        raise TypeError("coordinates must be ints")
    t, n = spec.t, spec.n
    keys = [(u * (u - t * v) + n * v * v, u, v) for u, v in zip(elems[::2], elems[1::2])]  # abs_sq first
    if (0, 0, 0) in keys:
        raise ZeroElement("tuple elements must be nonzero")
    if any(map(tuple.__ge__, keys, keys[1:])):
        raise ValueError("elements not strictly increasing in canonical order")
    for (i, j), wu, wv in zip(_pairs(m), witnesses[::2], witnesses[1::2]):
        (_, au, av), (_, bu, bv) = keys[i], keys[j]
        ab, ww = av * bv, wv * wv  # products as in RingElem.__mul__
        if (wu * wu - n * ww, 2 * wu * wv - t * ww) != (au * bu - n * ab + 1, au * bv + av * bu - t * ab):
            raise NotDiophantine((i, j))
        if wu < 0 or (wu == 0 and wv < 0):
            raise ValueError(f"witness of {(i, j)} is not the canonical root")  # sqrt_in_ring's
    return keys


@dataclass(frozen=True, slots=True)
class DiophTuple:
    """A verified m-tuple: sorted elements plus one witness per pair.

    witnesses[(i, j)] is the canonical root of elems[i]*elems[j] + 1.  make_tuple
    builds one from user input's bare elements (verify, extend, pell) and roots
    each pair.  A search builds none: its rows (its pair graph's roots, fresh,
    a worker's or a cached one) pass check_row once each in its one gate, and
    a gated row list is the proof.  from_witnesses, check_row and then the
    objects, is the only constructor from a row.  So a DiophTuple is a proof.
    """

    spec: RingSpec
    elems: tuple[RingElem, ...]
    witnesses: Mapping[tuple[int, int], RingElem]

    @staticmethod
    def from_json_dict(data: dict) -> "DiophTuple":
        """A {"d", "elems", "witnesses"} dict through from_witnesses.  No command
        calls it and no cache file holds one: it is kept as perfbench's from_json hook."""
        return DiophTuple.from_witnesses(RingSpec(data["d"]), data["elems"], data["witnesses"])[0]

    def to_row(self) -> Row:
        """Plain integers for from_witnesses, as _search writes them: the
        elements' coordinates (u0, v0, u1, v1, ...) and the witnesses' (pairs
        (i, j) in lexicographic order), flat: that pickles smaller than pairs."""
        pairs = combinations(range(len(self.elems)), 2)
        return (
            tuple(x for z in self.elems for x in z.coords()),
            tuple(x for p in pairs for x in self.witnesses[p].coords()),
        )

    @staticmethod
    def from_witnesses(spec: RingSpec, elems: Sequence[int], witnesses: Sequence[int]) -> tuple["DiophTuple", list]:
        """The tuple that to_row wrote, refused as check_row refuses it, and
        the elements' canonical keys that check_row returned."""
        keys = check_row(spec, elems, witnesses)
        items = tuple(RingElem(u, v, spec) for _k, u, v in keys)
        pairs = combinations(range(len(items)), 2)
        out = {p: RingElem(wu, wv, spec) for p, wu, wv in zip(pairs, witnesses[::2], witnesses[1::2])}
        return DiophTuple(spec, items, out), keys


def canonical_elements(spec: RingSpec, elems: Iterable[RingElem]) -> list[RingElem]:
    """elems in canonical order, refused unless there is one, each is a
    nonzero element of spec's ring, and no two are equal."""
    items = list(elems)
    if not items:
        raise ValueError("empty tuple")
    for z in items:
        if z.spec != spec:
            raise MixedRings(f"{z.spec} vs {spec}")
        if z.is_zero():
            raise ZeroElement("tuple elements must be nonzero")
    if len(set(items)) != len(items):
        repeated = [z for z in dict.fromkeys(items) if items.count(z) > 1]
        listed = ";".join(f"{z.u},{z.v}" for z in repeated)
        raise DuplicateElement(f"elements not pairwise distinct: {listed} repeated")
    items.sort(key=RingElem.canonical_key)
    return items


def make_tuple(spec: RingSpec, elems: Iterable[RingElem]) -> DiophTuple:
    """Sort, verify all pairwise products, and assemble the witness map.

    Raises canonical_elements' refusals, and NotDiophantine carrying the
    first violating pair (i, j) in the sorted order.
    """
    items = canonical_elements(spec, elems)
    witnesses: dict[tuple[int, int], RingElem] = {}
    for i, j in combinations(range(len(items)), 2):
        w = sqrt_in_ring(items[i] * items[j] + spec.one)
        if w is None:
            raise NotDiophantine((i, j))
        witnesses[(i, j)] = w
    return DiophTuple(spec, tuple(items), witnesses)


def quadruple_extension_candidates(t: DiophTuple) -> tuple[tuple[RingElem, ...], tuple[RingElem, ...]]:
    """The candidates c_plus_minus(t), split into verified and failed extensions of t.

    The formula is derived under sign conventions the ring does not fix, so
    every candidate d is checked against the definition instead of trusted:
    e*d + 1 must be a square for each e in t, whose own pairs are verified.
    """
    one = t.spec.one
    verified, failed = [], []
    for d in set(c_plus_minus(t)):
        if d.is_zero() or d in t.elems:
            continue
        if all(sqrt_in_ring(e * d + one) is not None for e in t.elems):
            verified.append(d)
        else:
            failed.append(d)
    key = RingElem.canonical_key
    return tuple(sorted(verified, key=key)), tuple(sorted(failed, key=key))


def c_plus_minus(t: DiophTuple) -> tuple[RingElem, RingElem]:
    """(c+, c-) = a+b+d+2abd ± 2rxy for the first three elements a, b, d of t.

    r, x and y are t's witnesses of the pairs (0, 1), (0, 2) and (1, 2).
    Postcondition checked exactly: c+ * c- == a^2+b^2+d^2-2ab-2ad-2bd-4.
    """
    a, b, d = t.elems[:3]
    rxy = t.witnesses[(0, 1)] * t.witnesses[(0, 2)] * t.witnesses[(1, 2)]
    base = a + b + d + 2 * (a * b * d)
    c_plus = base + 2 * rxy
    c_minus = base - 2 * rxy
    four = a.spec.elem(4)
    rhs = a * a + b * b + d * d - 2 * (a * b) - 2 * (a * d) - 2 * (b * d) - four
    if c_plus * c_minus != rhs:
        raise PostconditionViolated(f"c+ * c- for {a}, {b}, {d}")
    return c_plus, c_minus


def _admissible_quadruple(t: DiophTuple) -> tuple[RingElem, ...]:
    """t's elements, refused unless t has four and |a| >= 2 (t is sorted)."""
    if len(t.elems) != 4:
        raise PreconditionViolated(["need exactly four elements"])
    if t.elems[0].abs_sq() < 4:
        raise PreconditionViolated(["all elements need |z| >= 2"])
    return t.elems


def forbidden_double_regular(t: DiophTuple) -> bool:
    """True iff the quadruple t = {a, b, c, d} has {c, d} = {a+b-2r, a+b+2r},
    r its witness of ab + 1.

    Refutation check: no verified Diophantine quadruple with all elements of
    absolute value >= 2 may return True.
    """
    a, b, c, d = _admissible_quadruple(t)
    # -r gives the same pair {a+b-2r, a+b+2r}, so one root decides
    r = t.witnesses[(0, 1)]
    return {c, d} == {a + b - 2 * r, a + b + 2 * r}


def omega_lower_bound(t: DiophTuple) -> tuple[bool, int]:
    """Exact check 64*abs_sq(d) >= abs_sq(a)*abs_sq(b) for the quadruple t.

    Returns (holds, margin) with margin = 64*abs_sq(d) - abs_sq(a)*abs_sq(b);
    a negative margin would be a reportable counterexample to the theory.
    """
    na, nb, _, nd = (z.abs_sq() for z in _admissible_quadruple(t))
    margin = 64 * nd - na * nb
    return margin >= 0, margin


def pair_products_not_square(t: DiophTuple) -> tuple[int, int] | None:
    """First pair (i, j) whose plain product is a square, or None.

    For tuples of size >= 3 no pairwise product may be a square; a non-None
    answer on a verified triple would contradict the underlying theory and
    is treated by callers as a reportable violation.
    """
    for i, j in combinations(range(len(t.elems)), 2):
        if sqrt_in_ring(t.elems[i] * t.elems[j]) is not None:
            return (i, j)
    return None

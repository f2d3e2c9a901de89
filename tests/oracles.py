"""Reference searches the tests compare the program's fast paths against."""

import itertools
from math import isqrt

from diophiq.errors import DuplicateElement, NotDiophantine, ZeroElement
from diophiq.ring import RingElem, annulus_points, elements_with_abs_sq
from diophiq.tuples import make_tuple


def enumerate_up_to(spec, b_sq, min_abs_sq=1):
    """Every z with min_abs_sq <= abs_sq(z) <= b_sq, z nonzero, in canonical order."""
    return [RingElem(u, v, spec) for _n, u, v in annulus_points(spec, b_sq, min_abs_sq)]


def is_diophantine_tuple(spec, elems):
    try:
        make_tuple(spec, elems)
        return True
    except (NotDiophantine, ZeroElement, DuplicateElement):
        return False


def regular_extensions(a, b):
    """The regular completions a+b+2r and a+b-2r of {a, b} that are nonzero
    and outside {a, b}, in canonical order; () when {a, b} is not a pair.

    r is a root of ab + 1 found by the norm-form search, so this shares no
    code with sqrt_in_ring; -r gives the same two branches.
    """
    spec = a.spec
    w = a * b + spec.one
    n = w.abs_sq()
    r = isqrt(n)
    roots = [z for z in elements_with_abs_sq(spec, r) if z * z == w] if r * r == n else []
    if not roots:
        return ()
    out = {a + b + 2 * roots[0], a + b - 2 * roots[0]} - {spec.zero, a, b}
    return tuple(sorted(out, key=RingElem.canonical_key))


def census_double_regular_triples(spec, min_abs_sq, max_abs_sq):
    """(a, b, branches) for each pair of the annulus whose two regular
    branches are both admissible: the paper's check of all small triples.
    The branches may lie outside the annulus."""
    pairs = itertools.combinations(enumerate_up_to(spec, max_abs_sq, min_abs_sq), 2)
    return [(a, b, exts) for a, b in pairs if len(exts := regular_extensions(a, b)) == 2]


def naive_find_m_tuples(cfg):
    """Every target_size-subset of the annulus through make_tuple, in the
    search's tuple order; shares no code with the pair graph or the clique search."""
    spec = cfg.spec
    elems = [z for z in enumerate_up_to(spec, cfg.max_abs_sq) if z.abs_sq() >= cfg.min_abs_sq]
    found = []
    for combo in itertools.combinations(elems, cfg.target_size):
        try:
            found.append(make_tuple(spec, combo))
        except NotDiophantine:
            continue
    found.sort(key=lambda t: tuple(z.canonical_key() for z in t.elems))
    return tuple(found)


def k_core(adj, k):
    """The vertices of the k-core of the graph adj (a list of neighbour sets):
    delete every vertex of degree < k among the rest until none is left.
    Shares no code with the search's peel."""
    alive = set(range(len(adj)))
    while True:
        low = {v for v in alive if len(adj[v] & alive) < k}
        if not low:
            return alive
        alive -= low

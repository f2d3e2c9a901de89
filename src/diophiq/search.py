"""Exhaustive, provably complete bounded search for Diophantine m-tuples.

Per ring: enumerate the nonzero elements inside the bound, build the pair
graph (edge iff the product plus one is a square in the ring), and list
m-cliques by backtracking over a degeneracy order.

The sweep at bound |z|^2 <= B covers every squarefree |d| <= 4B plus one
rational-integer pass, and that set is complete for every B.  A non-real
element z = u + v*w has 4|z|^2 >= |D| v^2 with |D| = |d| (half-integer
basis) or 4|d| (integral basis), so it needs |d| <= 4B or |d| <= B
respectively.  Beyond those cutoffs every candidate element is a rational
integer, and so are its witnesses: a non-real witness of a rational a*b + 1
is some y*sqrt(d) with y a nonzero integer, and |y^2 d| = |a*b + 1| <= B + 1
forces |d| <= B + 1.  So all rings with an integral basis and |d| > B + 1,
and all rings with |d| > 4B, share one search: the integers in
[-isqrt(B), isqrt(B)], joined where a*b + 1 is a square in Z.  The rational
pass runs it once, in the first such integral-basis ring, listed or not: its
tuples stand for the unlisted rings past 4B too, and at B = 1 no listed ring
qualifies (it is d = -5, past 4B = 4).  It uses no cache: a read would cost
about what a search of 2*isqrt(B) vertices does, and the cache keeps one
file per ring searched on its own.  The listed integral-basis rings past
B + 1 are not searched; each takes the pass's tuples (d replaced) and
counts.

A tuple's square roots are the pair graph's: the witness walk finds each
edge {a, b} through the canonical root w of a*b + 1 and keeps it, and
_search reads a clique's points and edge roots as one row of plain integers
(to_row's layout), so no search takes a square root.  Every row (a search's
own, a worker's, a cache line, a rational-only ring's copy of the pass's
row) becomes a DiophTuple only through _from_rows, the one check:
from_witnesses squares each witness in the config's ring (a rational copy's
witnesses are roots there too), and the config's size, norm range and tuple
order are checked.  One gate call builds one RingElem per distinct point of
its rows, shared by its tuples: safe as a RingElem is frozen, and the memo
is of one ring and dies with the call.  Only the parent stores, and only
rows the gate has passed.  _cache_load gates a file after its ring and
count checks: it is used whole or not at all, and a refused file is a miss
like a missing one.  The gate refuses any false, out-of-range, misordered
or other-ring row, but a file with rows removed and its count lowered still
passes: an edited cache can shrink a result.

Every search finds every tuple of the full disk abs_sq <= B: no step of the
paper's bound needs a first hit, a count alone or an annulus.

Both the pair graph and the extension search walk witnesses in place of
pairs: a partner b of a has a*b + 1 = w^2, so dividing w^2 - 1 by a finds
it without testing a pair for squareness.  Both walk one witness per
{+/-w, +/-conj(w)} orbit (_orbit_walk): conj(w)^2 - 1 = conj(w^2 - 1).
The pair graph's vertices are plain (abs_sq, u, v) points, keyed by one
integer; only the gate builds RingElems, from a search's rows.  The disk is
closed under z -> -z and z -> conj(z), and so is its edge set: (-a)(-b) =
a*b, and conj(a)*conj(b) + 1 = conj(w)^2.  So the pair graph divides by one
vertex per +/-a, since -a finds -b, and each edge it finds adds its images
under both maps.  The extension search's anchor is not conjugation-invariant, so
it divides both w^2 - 1 and its conjugate by the anchor, checks each
candidate d against the other elements on plain coordinates with a norm
filter and one exact root test per product, and builds RingElems only for
the extensions it returns.
The clique search peels the graph to its (m-1)-core first: a vertex outside
it starts no m-clique, and it is counted as the one node the search over the
whole graph explores from it, so cliques_explored does not depend on the peel.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import ClassVar, NamedTuple

from .errors import NotDiophantine, PostconditionViolated, ZeroElement
from .ring import (
    RingElem,
    RingSpec,
    annulus_points,
    is_squarefree,
    iter_disk_coords,
    sqrt_coords,
)
from .tuples import DiophTuple, Row, c_plus_minus


@dataclass(frozen=True)
class SearchConfig:
    spec: RingSpec
    max_abs_sq: int
    target_size: int
    # not a field: every search finds all tuples.  The report's config.mode
    # reads it, and so does perfbench's cache_load hook, kept until the hooks go
    mode: ClassVar[str] = "find-all"

    def __post_init__(self) -> None:
        if self.max_abs_sq < 1:
            raise ValueError("max_abs_sq must be >= 1")
        if self.target_size < 2:
            raise ValueError("target_size must be >= 2")


class SearchStats(NamedTuple):
    """Counts of one search, summed over the rings of a sweep.

    elements: the pair graph's vertices, the nonzero elements in the bound.
    pairs_tested: n(n-1)/2, the vertex pairs the pair graph decides; not a
        count of square tests, as the witness walk makes none.
    cliques_explored: clique-search nodes, each peeled vertex one node.
    """

    elements: int
    pairs_tested: int
    cliques_explored: int


@dataclass(frozen=True)
class SearchResult:
    tuples: tuple[DiophTuple, ...]
    stats: SearchStats


def _orbit_walk(spec: RingSpec, b_sq: int):
    """(w, pu, pv, m) for w = (u, v), P = w^2 - 1 = (pu, pv), m = abs_sq(P),
    one canonical w per {+/-w, +/-conj(w)} orbit with abs_sq(w) <= b_sq:
    w = 0, v = 0 with u > 0, and v > 0 with X = 2u - t*v >= 0.  conj(u + v*w)
    = (u - t*v, -v), so -conj(w) keeps v and negates X, the disk's doubled
    coordinate |X| <= isqrt(4*b_sq - |D|*v^2).  pv = v*X, so pv >= 0.

    Over an integral domain w'^2 == w^2 only when w' = +/-w.  An orbit is one
    +/-w exactly when pv == 0 (v == 0, or X == 0 and conj(w) == -w), and
    then P is real; otherwise its other +/-w gives conj(P) = (pu - t*pv, -pv),
    which differs from P.  So P and, when pv != 0, conj(P) give each w^2 - 1
    of the disk exactly once."""
    tc, nc, disc = spec.t, spec.n, spec.abs_disc
    yield (0, 0), -1, 0, 1
    for u in range(1, isqrt(b_sq) + 1):
        yield (u, 0), u * u - 1, 0, (u * u - 1) ** 2
    for v in range(1, isqrt(4 * b_sq // disc) + 1):
        tv, nv = tc * v, nc * v * v + 1
        for u in range((tv + 1) // 2, (tv + isqrt(4 * b_sq - disc * v * v)) // 2 + 1):
            pu, pv = u * u - nv, v * (2 * u - tv)
            yield (u, v), pu, pv, pu * (pu - tc * pv) + nc * pv * pv


def _pair_graph(spec: RingSpec, vertices: list[tuple[int, int, int]]) -> tuple[list[dict[int, tuple[int, int]]], int]:
    """Adjacency over the indices of nonzero (abs_sq, u, v) points, adj[i]
    mapping each neighbour j to the edge's root; returns (adj, pairs_decided).

    An edge {a, b} has a witness w with a*b + 1 = w^2 and abs_sq(w) =
    |a*b + 1| <= B + 1, B the largest vertex norm, so the witness disk of
    that radius reaches each edge.  With a the end of smaller norm k,
    k * abs_sq(b) = M = abs_sq(w^2 - 1) and abs_sq(b) <= B give
    ceil(M/B) <= k <= isqrt(M) with k | M; then b = (w^2 - 1)*conj(a)/k.
    w = +/-1 gives M = 0 and no k.  b == a is no edge (a = +/-i in Z[i]).

    Orbits: -a gives -b for the same P = w^2 - 1, and conj(w)^2 - 1 =
    conj(P) joins conj(a) and conj(b).  So _orbit_walk gives one w of each
    {+/-w, +/-conj(w)} orbit, only a with v > 0, or v == 0 and u > 0, is
    divided, and each edge found adds {-a, -b}, rooted by w too, and, when
    pv != 0, the conjugates of both, rooted by conj(w) = (wu - t*wv, -wv)
    made canonical (wv > 0); a real P (pv == 0) is its own conjugate and
    finds the conjugate edges itself.  The vertices must be closed under -z
    and conj(z), as every annulus is; a list that is not raises ValueError.

    A point is keyed by the one integer u*S + v, S = 2*vmax + 1 with vmax
    the largest |v| in the disk of norm <= B: two points of that disk with
    equal keys have S*(u - u') = v' - v and |v' - v| < S, so they are equal.
    Every candidate b lies in the disk, as abs_sq(b) = M/k <= B.
    """
    tc, nc = spec.t, spec.n
    n = len(vertices)
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    if not n:
        return adj, 0
    top = max(vertices)[0]
    s = 2 * isqrt(4 * top // spec.abs_disc) + 1
    index = {u * s + v: i for i, (_k, u, v) in enumerate(vertices)}
    try:  # conj(u + v*w) == (u - t*v, -v)
        neg = [index[-u * s - v] for _k, u, v in vertices]
        cj = [index[(u - tc * v) * s - v] for _k, u, v in vertices]
    except KeyError:
        raise ValueError("pair-graph vertices are not closed under -z and conj(z)") from None
    by_norm: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for i, (k, u, v) in enumerate(vertices):
        if v > 0 or (v == 0 and u > 0):  # one of each +/-a
            by_norm.setdefault(k, []).append((i, u, v, u - tc * v, nc * v))
    norms = sorted(by_norm)
    for w, pu, pv, m in _orbit_walk(spec, top + 1):
        for k in norms[bisect_left(norms, -(-m // top)) : bisect_right(norms, isqrt(m))]:
            if m % k:
                continue
            for i, au, av, acu, nav in by_norm[k]:
                qu, qv = pu * acu + pv * nav, pv * au - pu * av
                if qu % k or qv % k:
                    continue
                j = index.get(qu // k * s + qv // k)
                if j is None or j == i:
                    continue
                ni, nj = neg[i], neg[j]
                adj[i][j] = adj[j][i] = adj[ni][nj] = adj[nj][ni] = w
                if pv:
                    wu, wv = w
                    cu = wu - tc * wv
                    cw = (cu, -wv) if cu > 0 else (-cu, wv)
                    adj[cj[i]][cj[j]] = adj[cj[j]][cj[i]] = adj[cj[ni]][cj[nj]] = adj[cj[nj]][cj[ni]] = cw
    return adj, n * (n - 1) // 2


def _is_square(spec: RingSpec, wu: int, wv: int, root_norm: int) -> bool:
    """Exact square test for w = (wu, wv) given root_norm**2 == abs_sq(w): the
    extension search's test of each e*d + 1 that passes the norm filter.  The
    pair graph makes none."""
    return sqrt_coords(spec, wu, wv, root_norm) is not None


def _degeneracy_order(adj: list[dict[int, tuple[int, int]]], k: int) -> list[int]:
    """Degeneracy order (least degree first, ties by index) of the k-core.

    Vertices outside the k-core are peeled with a stack first; the heap then
    orders only the core, which is the tail the heap on the whole graph
    would produce, since it pops every non-core vertex first.
    """
    deg = list(map(len, adj))
    removed = [d < k for d in deg]
    stack = [v for v, out in enumerate(removed) if out]
    while stack:
        for w in adj[stack.pop()]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] < k:
                    removed[w] = True
                    stack.append(w)
    heap = [(deg[v], v) for v, out in enumerate(removed) if not out]
    heapq.heapify(heap)
    order = []
    while heap:
        d0, v = heapq.heappop(heap)
        if removed[v] or d0 != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order


def _cliques_of_size(adj: list[dict[int, tuple[int, int]]], m: int):
    """All m-cliques (as sorted index tuples), each exactly once.

    Backtracking over the degeneracy order: a clique is explored from its
    order-minimal vertex with candidates restricted to later neighbours, so
    no clique is produced twice.  Returns (cliques, nodes_explored).
    Only the (m-1)-core is searched.  Each peeled vertex counts as the one
    node it would explore (fewer than m-1 later neighbours, so no descent),
    so nodes_explored equals that of the search over the whole graph.
    """
    order = _degeneracy_order(adj, m - 1)
    if not order:
        return [], len(adj)
    pos = [-1] * len(adj)
    for i, v in enumerate(order):
        pos[v] = i
    out: list[tuple[int, ...]] = []
    explored = len(adj) - len(order)

    def extend(clique: list[int], cands: list[int]) -> None:
        nonlocal explored
        explored += 1
        if len(clique) == m:
            out.append(tuple(sorted(clique)))
            return
        need = m - len(clique)
        for i, w in enumerate(cands):
            if len(cands) - i < need:
                break
            rest = [x for x in cands[i + 1 :] if x in adj[w]]
            if len(rest) >= need - 1:
                extend(clique + [w], rest)

    for v in order:
        p = pos[v]
        later = sorted((w for w in adj[v] if pos[w] > p), key=pos.__getitem__)
        extend([v], later)
    del extend  # it calls itself through its closure; that cycle would keep adj alive until a collection
    return out, explored


def _from_rows(cfg: SearchConfig, rows: list[Row]) -> list[DiophTuple] | None:
    """The one gate from rows to DiophTuples: from_witnesses in cfg's ring,
    cfg's size and bound, and strictly increasing canonical order of tuples,
    read from the keys from_witnesses built.  None if it refuses a row."""
    memo: dict = {}  # (u, v) -> RingElem of cfg's ring, for every row
    try:
        checked = [DiophTuple.from_witnesses(cfg.spec, *row, memo) for row in rows]
    except (NotDiophantine, ZeroElement, TypeError, ValueError):
        return None
    keys = [k for _t, k in checked]  # sorted within a tuple: k[-1][0] is its largest norm
    fits = all(len(k) == cfg.target_size and k[-1][0] <= cfg.max_abs_sq for k in keys)
    return [t for t, _k in checked] if fits and all(k < k_next for k, k_next in zip(keys, keys[1:])) else None


def _search(cfg: SearchConfig) -> tuple[list[Row], SearchStats]:
    """cfg's search as rows for the gate, and its counts: each m-clique's
    points and edge roots, in to_row's layout.  The points are in canonical
    order, so sorted index tuples are tuples in canonical order."""
    spec = cfg.spec
    points = annulus_points(spec, cfg.max_abs_sq)
    adj, tested = _pair_graph(spec, points)
    cliques, explored = _cliques_of_size(adj, cfg.target_size)
    rows = [
        (tuple(x for i in c for x in points[i][1:]), tuple(x for i, j in combinations(c, 2) for x in adj[i][j]))
        for c in sorted(cliques)
    ]
    return rows, SearchStats(len(points), tested, explored)


def find_m_tuples(cfg: SearchConfig, cache_dir: str | None = None) -> SearchResult:
    """Complete bounded search; see module docstring for the method.

    Results are canonical (elements sorted, tuples sorted, duplicates
    impossible by construction), so identical configs give identical output.
    A hit is _cache_load's gated tuples, a miss _search's rows through _own_rows.
    """
    tuples, stats = _cache_load(cache_dir, cfg) or _own_rows(cfg, *_search(cfg), cache_dir)
    return SearchResult(tuple(tuples), stats)


# ---------------------------------------------------------------------------
# extension search
# ---------------------------------------------------------------------------


def extend_tuple(t: DiophTuple, max_abs_sq: int) -> list[RingElem]:
    """All d with abs_sq(d) <= max_abs_sq extending t; complete within the bound.

    Witnesses for the smallest element a are enumerated instead of candidate
    d's.  Every valid d satisfies a*d + 1 = w^2, so the integer
    abs_sq(w) = |a*d + 1| <= |a||d| + 1 <= sqrt(abs_sq(a) * max_abs_sq) + 1,
    that is abs_sq(w) <= isqrt(abs_sq(a) * max_abs_sq) + 1.  _orbit_walk of
    that disk gives P = w^2 - 1 once per orbit; P and, when pv != 0, conj(P)
    yield each candidate d = (w^2 - 1)/a exactly once, and
    abs_sq(d) = abs_sq(w^2 - 1)/abs_sq(a) <= max_abs_sq is checked before
    dividing (conj(P) has P's norm).

    Each candidate is checked on plain coordinates: it is skipped if it is
    zero or in t, and for every other element e, w = e*d + 1 must have a
    square norm r^2 and pass _is_square's exact root test.  t is sorted, so
    its first element is a.  Only an accepted d becomes a RingElem.
    """
    if max_abs_sq < 1:
        return []
    spec = t.spec
    tc, nc = spec.t, spec.n
    anchor = t.elems[0]
    others = [e.coords() for e in t.elems[1:]]
    skip = {(0, 0), *(e.coords() for e in t.elems)}
    na = anchor.abs_sq()
    m_bound = na * max_abs_sq

    # (w^2 - 1) * conj(anchor), then exact division by na
    au, av = anchor.u, anchor.v
    acu, nav = au - tc * av, nc * av  # conj(anchor) == (acu, -av)
    found = []
    for _w, pu, pv, m in _orbit_walk(spec, isqrt(m_bound) + 1):
        if m > m_bound or m % na:
            continue
        for pu, pv in ((pu, pv), (pu - tc * pv, -pv)) if pv else ((pu, pv),):  # P, and conj(P) from conj(w)
            qu, qv = pu * acu + pv * nav, pv * au - pu * av
            if qu % na or qv % na:
                continue
            du, dv = qu // na, qv // na
            if (du, dv) in skip:
                continue
            for eu, ev in others:
                vv = ev * dv  # e*d + 1 as in RingElem.__mul__
                wu, wv = eu * du - nc * vv + 1, eu * dv + ev * du - tc * vv
                norm = wu * (wu - tc * wv) + nc * wv * wv
                r = isqrt(norm)
                if r * r != norm or not _is_square(spec, wu, wv, r):
                    break
            else:
                found.append((m // na, du, dv))  # abs_sq(d) first: the canonical order
    return [RingElem(du, dv, spec) for _k, du, dv in sorted(found)]


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def sweep_ring_list(b_sq: int = 256) -> list[int]:
    """Every squarefree d < 0 with |d| <= 4*b_sq, descending from -1: the
    rings that hold a non-real element with abs_sq <= b_sq."""
    return [-n for n in range(1, 4 * b_sq + 1) if is_squarefree(n)]


def rational_integer_pass(b_sq: int, size: int) -> SearchResult:
    """The one search of every ring whose elements and witnesses in the bound
    are all rational integers (module docstring): the first squarefree d < 0
    with an integral basis and |d| > b_sq + 1, searched without the cache."""
    n = max(b_sq, 0) + 2  # a bad b_sq walks no further; SearchConfig refuses it
    while n % 4 == 3 or not is_squarefree(n):
        n += 1
    return find_m_tuples(SearchConfig(RingSpec(-n), b_sq, size))


@dataclass(frozen=True)
class SweepReport:
    rings_checked: tuple[int, ...]
    tuples: tuple[DiophTuple, ...]
    rational_pass_tuples: tuple[tuple[int, ...], ...]
    completeness: dict
    conjecture_violations: tuple[DiophTuple, ...]
    stats: SearchStats

    @property
    def is_empty(self) -> bool:
        return not self.tuples and not self.rational_pass_tuples


def _sweep_one(job: tuple[int, int, int]) -> tuple[int, list[Row], SearchStats]:
    """Ring d's _search at (b_sq, size), for a ring the parent's load missed:
    rows and counts for the parent to gate and store; no DiophTuple, no file."""
    d, b_sq, size = job
    return (d, *_search(SearchConfig(RingSpec(d), b_sq, size)))


def quintuple_sweep(
    b_sq: int = 256,
    size: int = 5,
    workers: int | None = None,
    cache_dir: str | None = None,
) -> SweepReport:
    """Search every ring in the cutoff set derived from b_sq, plus the
    rational-integer pass, and report all m-tuples found (expected: none
    for size 5 at bound 16)."""
    shared = rational_integer_pass(b_sq, size)  # first: its config refuses a bad b_sq or size
    rings = sweep_ring_list(b_sq)
    cfgs = {d: SearchConfig(RingSpec(d), b_sq, size) for d in rings}
    shared_rows = [t.to_row() for t in shared.tuples]
    # a ring's file, or None to search; integral-basis rings past the witness cutoff take the pass's copy
    stored = {d: _cache_load(cache_dir, cfg) for d, cfg in cfgs.items() if d % 4 == 1 or -d <= b_sq + 1}
    stored.update((d, _own_rows(cfgs[d], shared_rows, shared.stats)) for d in rings if d not in stored)
    jobs = [(d, b_sq, size) for d in rings if stored[d] is None]
    # the pool starts all its processes at once; more than jobs or CPUs only idle
    workers = min(workers or 1, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            searched = list(pool.map(_sweep_one, jobs, chunksize=16))
    else:
        searched = [_sweep_one(j) for j in jobs]
    stored.update((d, _own_rows(cfgs[d], rows, stats, cache_dir)) for d, rows, stats in searched)
    found = [t for d in rings for t in stored[d][0]]
    violations = tuple(t for t in found if len(t.elems) >= 4 and _violates_strong_bound(t))
    return SweepReport(
        rings_checked=tuple(rings),
        tuples=tuple(found),
        rational_pass_tuples=tuple(sorted(tuple(sorted(z.u for z in t.elems)) for t in shared.tuples)),
        completeness={
            "half_basis_cutoff": 4 * b_sq,
            "integral_basis_cutoff": b_sq,
            "witness_cutoff": b_sq + 1,
            "product_plus_one_bound": b_sq + 1,
            "rings": len(rings),
        },
        conjecture_violations=violations,
        stats=SearchStats(*map(sum, zip(*(stored[d][1] for d in rings)))),
    )


def _own_rows(cfg: SearchConfig, rows: list[Row], stats: SearchStats, cache_dir: str | None = None):
    """(tuples, stats) of a search's own rows, which the gate refuses only if
    arithmetic broke; stored once passed, so no file holds an ungated row."""
    tuples = _from_rows(cfg, rows)
    if tuples is None:
        raise PostconditionViolated(f"the gate refused the search's own rows in d={cfg.spec.d}")
    _cache_store(cache_dir, cfg, rows, stats)
    return tuples, stats


def _violates_strong_bound(t: DiophTuple) -> bool:
    """Conjectured |d| >= 4|ab| for non-standard extensions; recorded, not fatal.

    t is verified, so its fourth element d is a standard extension of the
    first three exactly when it is one of their c_plus_minus.
    """
    a, b, _c, d = t.elems[:4]
    return d not in c_plus_minus(t) and d.abs_sq() < 16 * a.abs_sq() * b.abs_sq()


# ---------------------------------------------------------------------------
# result cache: one JSON-lines file per (d, B_sq, m), one tuple a line and a
# closing {"count": N, "stats": [elements, pairs_tested, cliques_explored]} line,
# so a truncated file cannot pass for a result and a hit reports its counts
# ---------------------------------------------------------------------------


def _cache_path(cache_dir: str, cfg: SearchConfig) -> str:
    return os.path.join(cache_dir, f"d{cfg.spec.d}_b{cfg.max_abs_sq}_m{cfg.target_size}.jsonl")


def _cache_load(cache_dir: str | None, cfg: SearchConfig) -> tuple[list[DiophTuple], SearchStats] | None:
    """(tuples, search stats) stored for cfg, or None to search: the file is
    missing, malformed or refused.  Each line must be of cfg's ring, the
    closing line must count them and hold int stats of cfg's search (elements
    its disk's points, pairs_tested n(n-1)/2 of those, cliques_explored
    nonnegative), and _from_rows, the gate, must let every row through.
    """
    if not cache_dir:
        return None
    try:  # no file raises FileNotFoundError: a miss like any unreadable file
        with open(_cache_path(cache_dir, cfg), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        closing = json.loads(lines[-1]) if lines else {}
        count, stats = closing.get("count"), SearchStats(*closing.get("stats", ()))
        rows = []
        for line in lines[:-1]:
            data = json.loads(line)
            if data["d"] != cfg.spec.d:
                return None  # another ring's line: search
            rows.append((tuple(data["elems"]), tuple(data["witnesses"])))  # an older line has no witnesses
    except Exception:
        return None  # corrupt or stale: search
    n = sum(1 for _point in iter_disk_coords(cfg.spec, cfg.max_abs_sq))
    if count != len(rows) or any(type(x) is not int for x in stats) or stats[:2] != (n, n * (n - 1) // 2):
        return None  # tuples missing, or counts not of this search: search
    tuples = _from_rows(cfg, rows) if stats.cliques_explored >= 0 else None
    return None if tuples is None else (tuples, stats)


def _cache_store(cache_dir: str | None, cfg: SearchConfig, rows: list[Row], stats: SearchStats) -> None:
    """cfg's file of the rows _own_rows has passed, in the parent process."""
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, cfg)
    # a temp file of its own: sweeps sharing the directory may store one config at once
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for elems, witnesses in rows:  # one line per tuple: its row's integers and the ring
                fh.write(json.dumps({"d": cfg.spec.d, "elems": elems, "witnesses": witnesses}, sort_keys=True) + "\n")
            fh.write(json.dumps({"count": len(rows), "stats": list(stats)}) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)  # a unique name is never reused, so nothing else would remove it
        raise

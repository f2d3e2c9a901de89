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

A tuple's square roots are taken once, by the make_tuple that builds it from
the clique search's elements.  Every stored copy (a cache line, a worker's
row, a rational-only ring's copy of the pass's tuple) is to_row's integers,
and _from_rows is the one gate back: from_witnesses squares each witness in
the config's ring (a rational copy's witnesses are roots there too), and the
config's size, norm range and tuple order are checked.  _cache_load gates a
file after its ring and count checks: it is used whole or not at all, and a
refused file is a miss like a missing one.  The gate refuses any false,
out-of-range, misordered or other-ring row, but a file with rows removed and
its count lowered still passes: an edited cache can shrink a result.

One witness walk, over w = 0 and one of each +/-w in a disk, serves both the
pair graph and the extension search: a partner b of a has a*b + 1 = w^2, so
dividing w^2 - 1 by a finds it without testing a pair for squareness.
The clique search peels the graph to its (m-1)-core first: a vertex outside
it starts no m-clique, and it is counted as the one node the search over the
whole graph explores from it, so cliques_explored does not depend on the peel.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import tempfile
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .errors import NotDiophantine, PostconditionViolated, ZeroElement
from .ring import (
    RingElem,
    RingSpec,
    enumerate_up_to,
    is_squarefree,
    iter_disk_coords,
    sqrt_coords,
    sqrt_in_ring,
)
from .tuples import DiophTuple, Row, c_plus_minus, is_diophantine_tuple, make_tuple, regular_extensions


@dataclass(frozen=True)
class SearchConfig:
    spec: RingSpec
    max_abs_sq: int
    target_size: int
    mode: str = "find-all"  # find-all | find-first | count
    min_abs_sq: int = 1

    def __post_init__(self) -> None:
        if self.max_abs_sq < 1:
            raise ValueError("max_abs_sq must be >= 1")
        if self.target_size < 2:
            raise ValueError("target_size must be >= 2")
        if self.mode not in ("find-all", "find-first", "count"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.min_abs_sq < 1:
            raise ValueError("min_abs_sq must be >= 1")


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
    count: int
    stats: SearchStats


def _witness_walk(spec: RingSpec, b_sq: int):
    """(pu, pv, m) for P = w^2 - 1 = (pu, pv) and m = abs_sq(P), over w = 0 and
    one of each +/-w with abs_sq(w) <= b_sq.  Over an integral domain
    w'^2 == w^2 only when w' = +/-w, so each w^2 - 1 comes exactly once."""
    tc, nc = spec.t, spec.n
    yield -1, 0, 1  # w = 0
    for u, v, _nw in iter_disk_coords(spec, b_sq):
        if v < 0 or (v == 0 and u < 0):
            continue  # -w gives the same w^2 as w
        pu, pv = u * u - nc * v * v - 1, v * (2 * u - tc * v)
        yield pu, pv, pu * (pu - tc * pv) + nc * pv * pv


def _pair_graph(spec: RingSpec, vertices: list[RingElem]) -> tuple[list[set[int]], int]:
    """Adjacency sets over nonzero vertices' indices; returns (adj, pairs_decided).

    An edge {a, b} has a witness w with a*b + 1 = w^2 and abs_sq(w) =
    |a*b + 1| <= B + 1, B the largest vertex norm, so the witness walk of
    that disk reaches each edge once.  With a the end of smaller norm k,
    k * abs_sq(b) = M = abs_sq(w^2 - 1) and abs_sq(b) <= B give
    ceil(M/B) <= k <= isqrt(M) with k | M; then b = (w^2 - 1)*conj(a)/k.
    w = +/-1 gives M = 0 and no k.  b == a is no edge (a = +/-i in Z[i]).
    """
    tc, nc = spec.t, spec.n
    n = len(vertices)
    adj: list[set[int]] = [set() for _ in range(n)]
    if not n:
        return adj, 0
    index = {(z.u, z.v): i for i, z in enumerate(vertices)}
    by_norm: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for i, z in enumerate(vertices):  # conj(u + v*w) == (u - t*v, -v)
        by_norm.setdefault(z.abs_sq(), []).append((i, z.u, z.v, z.u - tc * z.v, nc * z.v))
    norms = sorted(by_norm)
    top = norms[-1]
    for pu, pv, m in _witness_walk(spec, top + 1):
        for k in norms[bisect_left(norms, -(-m // top)) : bisect_right(norms, isqrt(m))]:
            if m % k:
                continue
            for i, au, av, acu, nav in by_norm[k]:
                qu, qv = pu * acu + pv * nav, pv * au - pu * av
                if qu % k or qv % k:
                    continue
                j = index.get((qu // k, qv // k))
                if j is not None and j != i:
                    adj[i].add(j)
                    adj[j].add(i)
    return adj, n * (n - 1) // 2


def _is_square(spec: RingSpec, wu: int, wv: int, root_norm: int) -> bool:
    """Exact square test for w = (wu, wv) given isqrt(abs_sq(w)) == root_norm;
    kept for the tests' all-pairs oracle and the tracer, not the pair graph."""
    return sqrt_coords(spec, wu, wv, root_norm) is not None


def _degeneracy_order(adj: list[set[int]], k: int) -> list[int]:
    """Degeneracy order (least degree first, ties by index) of the k-core.

    Vertices outside the k-core are peeled with a stack first; the heap then
    orders only the core, which is the tail the heap on the whole graph
    would produce, since it pops every non-core vertex first.
    """
    n = len(adj)
    deg = [len(adj[v]) for v in range(n)]
    removed = [False] * n
    stack = [v for v in range(n) if deg[v] < k]
    for v in stack:
        removed[v] = True
    while stack:
        for w in adj[stack.pop()]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] < k:
                    removed[w] = True
                    stack.append(w)
    heap = [(deg[v], v) for v in range(n) if not removed[v]]
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


def _cliques_of_size(adj: list[set[int]], m: int, limit: int | None = None):
    """All m-cliques (as sorted index tuples), each exactly once.

    Backtracking over the degeneracy order: a clique is explored from its
    order-minimal vertex with candidates restricted to later neighbours, so
    no clique is produced twice.  Returns (cliques, nodes_explored).
    Only the (m-1)-core is searched.  Each peeled vertex counts as the one
    node it would explore (fewer than m-1 later neighbours, so no descent),
    so nodes_explored equals that of the search over the whole graph.
    """
    order = _degeneracy_order(adj, m - 1)
    pos = [-1] * len(adj)
    for i, v in enumerate(order):
        pos[v] = i
    out: list[tuple[int, ...]] = []
    explored = len(adj) - len(order)

    def extend(clique: list[int], cands: list[int]) -> bool:
        nonlocal explored
        explored += 1
        if len(clique) == m:
            out.append(tuple(sorted(clique)))
            return limit is not None and len(out) >= limit
        need = m - len(clique)
        for i, w in enumerate(cands):
            if len(cands) - i < need:
                break
            rest = [x for x in cands[i + 1 :] if x in adj[w]]
            if len(rest) >= need - 1:
                if extend(clique + [w], rest):
                    return True
        return False

    for v in order:
        p = pos[v]
        later = sorted((w for w in adj[v] if pos[w] > p), key=pos.__getitem__)
        if extend([v], later):
            break
    return out, explored


def _tuple_key(t: DiophTuple) -> tuple:
    return tuple(z.canonical_key() for z in t.elems)


def _from_rows(cfg: SearchConfig, rows: list[Row]) -> list[DiophTuple] | None:
    """The one gate from stored rows to DiophTuples: from_witnesses in cfg's
    ring, cfg's size and norm range, and strictly increasing _tuple_key order,
    read from the keys from_witnesses built.  None if it refuses a row."""
    try:
        checked = [DiophTuple.from_witnesses(cfg.spec, *row) for row in rows]
    except (NotDiophantine, ZeroElement, TypeError, ValueError):
        return None
    keys = [k for _t, k in checked]  # a tuple's norms run from k[0][0] up to k[-1][0]
    fits = all(len(k) == cfg.target_size and cfg.min_abs_sq <= k[0][0] <= k[-1][0] <= cfg.max_abs_sq for k in keys)
    return [t for t, _k in checked] if fits and all(k < k_next for k, k_next in zip(keys, keys[1:])) else None


def find_m_tuples(cfg: SearchConfig, cache_dir: str | None = None) -> SearchResult:
    """Complete bounded search; see module docstring for the method.

    Results are canonicalized (elements sorted, tuples sorted, duplicates
    impossible by construction) so identical configs give identical output
    regardless of scheduling.  A cache hit is _cache_load's gated tuples.
    """
    cached = _cache_load(cache_dir, cfg)
    if cached is not None:
        tuples, stats = cached
    else:
        spec = cfg.spec
        vertices = enumerate_up_to(spec, cfg.max_abs_sq, cfg.min_abs_sq)
        adj, tested = _pair_graph(spec, vertices)
        limit = 1 if cfg.mode == "find-first" else None
        cliques, explored = _cliques_of_size(adj, cfg.target_size, limit)
        tuples = sorted((make_tuple(spec, [vertices[i] for i in c]) for c in cliques), key=_tuple_key)
        stats = SearchStats(len(vertices), tested, explored)
        if cfg.mode == "find-all":
            _cache_store(cache_dir, cfg, tuples, stats)
    return SearchResult(
        tuples=tuple(tuples) if cfg.mode != "count" else (),
        count=len(tuples),
        stats=stats,
    )


def naive_find_m_tuples(cfg: SearchConfig) -> tuple[DiophTuple, ...]:
    """Independent oracle: plain nested combinations, each verified once by make_tuple."""
    spec = cfg.spec
    elems = [z for z in enumerate_up_to(spec, cfg.max_abs_sq) if z.abs_sq() >= cfg.min_abs_sq]
    found = []
    for combo in itertools.combinations(elems, cfg.target_size):
        try:
            found.append(make_tuple(spec, combo))
        except NotDiophantine:
            continue
    found.sort(key=_tuple_key)
    return tuple(found)


# ---------------------------------------------------------------------------
# extension search
# ---------------------------------------------------------------------------


def extend_tuple(t: DiophTuple, max_abs_sq: int) -> list[RingElem]:
    """All d with abs_sq(d) <= max_abs_sq extending t; complete within the bound.

    Witnesses for the smallest element a are enumerated instead of candidate
    d's.  Every valid d satisfies a*d + 1 = w^2, so the integer
    abs_sq(w) = |a*d + 1| <= |a||d| + 1 <= sqrt(abs_sq(a) * max_abs_sq) + 1,
    that is abs_sq(w) <= isqrt(abs_sq(a) * max_abs_sq) + 1: the witness walk
    of that disk yields each candidate d = (w^2 - 1)/a exactly once, and
    abs_sq(d) = abs_sq(w^2 - 1)/abs_sq(a) <= max_abs_sq is checked before
    dividing.  The candidates are then verified against every remaining
    element.
    """
    if max_abs_sq < 1:
        return []
    spec = t.spec
    anchor = min(t.elems, key=RingElem.canonical_key)
    others = [e for e in t.elems if e != anchor]
    na = anchor.abs_sq()
    m_bound = na * max_abs_sq

    # (w^2 - 1) * conj(anchor), then exact division by na
    au, av = anchor.u, anchor.v
    acu, nav = au - spec.t * av, spec.n * av  # conj(anchor) == (acu, -av)
    candidates = []
    for pu, pv, m in _witness_walk(spec, isqrt(m_bound) + 1):
        if m > m_bound or m % na:
            continue
        qu, qv = pu * acu + pv * nav, pv * au - pu * av
        if qu % na or qv % na:
            continue
        candidates.append(RingElem(qu // na, qv // na, spec))

    one = spec.one
    out = [
        d
        for d in candidates
        if not d.is_zero()
        and d not in t.elems
        and all(sqrt_in_ring(e * d + one) is not None for e in others)
    ]
    return sorted(out, key=RingElem.canonical_key)


# ---------------------------------------------------------------------------
# the double-regular census behind the small-triple claim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleRegularCensus:
    """Triples arising from both regular branches of in-range pairs."""

    triples: tuple[DiophTuple, ...]
    # one record per contributing pair: both branch elements in canonical
    # order and whether the union {a, b, c-, c+} verifies as a quadruple
    # (the lemma says never)
    configurations: tuple[dict, ...]


def census_double_regular_triples(
    spec: RingSpec, min_abs_sq: int, max_abs_sq: int
) -> DoubleRegularCensus:
    """Enumerate pairs with elements in the range whose regular branches
    a+b-2r and a+b+2r are both admissible (regular_extensions returns two),
    and collect the resulting triples.

    This reproduces the check-all-small-triples step of the double-regular
    refutation: the branch elements may lie outside the element range.
    """
    triples: dict[tuple, DiophTuple] = {}
    configs = []
    for a, b in itertools.combinations(enumerate_up_to(spec, max_abs_sq, min_abs_sq), 2):
        try:
            branches = regular_extensions(a, b)
        except NotDiophantine:
            continue
        if len(branches) != 2:
            continue  # r = 0, or a branch is 0, a or b
        union_ok = is_diophantine_tuple(spec, [a, b, *branches])
        configs.append(
            {
                "pair": (a, b),
                "branches": branches,
                "union_is_quadruple": union_ok,
            }
        )
        for c in branches:
            t = make_tuple(spec, [a, b, c])
            triples[tuple(z.coords() for z in t.elems)] = t
    return DoubleRegularCensus(tuple(sorted(triples.values(), key=_tuple_key)), tuple(configs))


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


def _sweep_one(args: tuple[int, int, int, str | None]) -> tuple[int, list[Row], SearchStats]:
    """A ring whose file the parent's load missed or refused: its search,
    stored, as rows and counts for the parent's gate."""
    d, b_sq, size, cache_dir = args
    cfg = SearchConfig(RingSpec(d), b_sq, size)
    res = find_m_tuples(cfg)  # no cache_dir: the parent's load has read the file once already
    _cache_store(cache_dir, cfg, list(res.tuples), res.stats)
    return d, [t.to_row() for t in res.tuples], res.stats


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
    jobs = [(d, b_sq, size, cache_dir) for d in rings if stored[d] is None]
    # the pool starts all its processes at once; more than jobs or CPUs only idle
    workers = min(workers or 1, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            searched = list(pool.map(_sweep_one, jobs, chunksize=16))
    else:
        searched = [_sweep_one(j) for j in jobs]
    stored.update((d, _own_rows(cfgs[d], rows, stats)) for d, rows, stats in searched)
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


def _own_rows(cfg: SearchConfig, rows: list[Row], stats: SearchStats) -> tuple[list[DiophTuple], SearchStats]:
    """Rows of the sweep's own search through the gate, which refuses them only if arithmetic broke."""
    tuples = _from_rows(cfg, rows)
    if tuples is None:
        raise PostconditionViolated(f"the gate refused the search's own rows in d={cfg.spec.d}")
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
    name = f"d{cfg.spec.d}_b{cfg.max_abs_sq}_m{cfg.target_size}"
    if cfg.min_abs_sq != 1:
        name += f"_min{cfg.min_abs_sq}"
    return os.path.join(cache_dir, name + ".jsonl")


def _cache_load(cache_dir: str | None, cfg: SearchConfig) -> tuple[list[DiophTuple], SearchStats] | None:
    """(tuples, search stats) stored for cfg, or None to search: the file is
    missing, malformed or refused.  Each line must be of cfg's ring, the
    closing line must count them and hold int stats of cfg's search (elements
    its disk points in range, pairs_tested n(n-1)/2 of those, cliques_explored
    nonnegative), and _from_rows, the gate, must let every row through.
    """
    if not cache_dir or cfg.mode != "find-all":
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
    n = sum(nw >= cfg.min_abs_sq for _u, _v, nw in iter_disk_coords(cfg.spec, cfg.max_abs_sq))
    if count != len(rows) or any(type(x) is not int for x in stats) or stats[:2] != (n, n * (n - 1) // 2):
        return None  # tuples missing, or counts not of this search: search
    tuples = _from_rows(cfg, rows) if stats.cliques_explored >= 0 else None
    return None if tuples is None else (tuples, stats)


def _cache_store(cache_dir: str | None, cfg: SearchConfig, tuples: list[DiophTuple], stats: SearchStats) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, cfg)
    # a temp file of its own: sweeps sharing the directory may store one config at once
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for t in tuples:
                fh.write(json.dumps(t.to_json_dict(), sort_keys=True) + "\n")
            fh.write(json.dumps({"count": len(tuples), "stats": list(stats)}) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)  # a unique name is never reused, so nothing else would remove it
        raise

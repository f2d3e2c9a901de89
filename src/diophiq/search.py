"""Exhaustive, provably complete bounded search for Diophantine m-tuples.

Per ring: enumerate the nonzero elements inside the bound, build the pair
graph (edge iff the product plus one is a square in the ring), and list
m-cliques via degeneracy-ordered backtracking.  Every clique found is
re-verified through make_tuple before it is reported.

The sweep at bound |z|^2 <= B runs that search over every squarefree
|d| <= 4B plus one rational-integer pass, and that set is complete for
every B.  A non-real element z = u + v*w has 4|z|^2 >= |D| v^2 with
|D| = |d| (half-integer basis) or 4|d| (integral basis), so it needs
|d| <= 4B or |d| <= B respectively.  Beyond those cutoffs every candidate
element is a rational integer, and so are its witnesses: a non-real
witness of a rational a*b + 1 is some y*sqrt(d) with y a nonzero integer,
and |y^2 d| = |a*b + 1| <= B + 1 forces |d| <= B + 1.  The rational pass
covers all those rings at once.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import isqrt

from .ring import (
    RingElem,
    RingSpec,
    enumerate_up_to,
    is_squarefree,
    iter_disk_coords,
    sqrt_coords,
    sqrt_in_ring,
)
from .tuples import (
    DiophTuple,
    is_diophantine_pair,
    is_diophantine_tuple,
    make_tuple,
    quadruple_extension_candidates,
)


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


@dataclass(frozen=True)
class SearchStats:
    elements: int
    pairs_tested: int
    cliques_explored: int
    wall_ms: int


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    tuples: tuple[DiophTuple, ...]
    count: int
    stats: SearchStats


def _pair_graph(spec: RingSpec, vertices: list[RingElem]) -> tuple[list[set[int]], int]:
    """Adjacency sets over vertex indices; returns (adj, pairs_tested).

    The product plus one w of each pair must pass the norm filter
    (abs_sq(w) a perfect square) before the exact square test.
    """
    tc, nc = spec.t, spec.n
    # u - t*v rides along: u1*v2 + v1*u2 - t*v1*v2 == u1*v2 + v1*(u2 - t*v2)
    coords = [(z.u, z.v, z.u - tc * z.v) for z in vertices]
    n = len(coords)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, (u1, v1, _) in enumerate(coords):
        nv1 = nc * v1
        for j in range(i + 1, n):
            u2, v2, cu2 = coords[j]
            wu = u1 * u2 - nv1 * v2 + 1
            wv = u1 * v2 + v1 * cu2
            nw = wu * (wu - tc * wv) + nc * wv * wv
            r = isqrt(nw)
            if r * r == nw and _is_square(spec, wu, wv, r):
                adj[i].add(j)
                adj[j].add(i)
    return adj, n * (n - 1) // 2


def _is_square(spec: RingSpec, wu: int, wv: int, root_norm: int) -> bool:
    """Exact square test for w = (wu, wv) given isqrt(abs_sq(w)) == root_norm."""
    return sqrt_coords(spec, wu, wv, root_norm) is not None


def _degeneracy_order(adj: list[set[int]]) -> list[int]:
    n = len(adj)
    deg = [len(adj[v]) for v in range(n)]
    removed = [False] * n
    heap = [(deg[v], v) for v in range(n)]
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
    """
    order = _degeneracy_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    later = [
        sorted((w for w in adj[v]), key=pos.__getitem__)
        for v in range(len(adj))
    ]
    later = [[w for w in ws if pos[w] > pos[v]] for v, ws in enumerate(later)]
    out: list[tuple[int, ...]] = []
    explored = 0

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
        if extend([v], later[v]):
            break
    return out, explored


def find_m_tuples(cfg: SearchConfig, cache_dir: str | None = None) -> SearchResult:
    """Complete bounded search; see module docstring for the method.

    Results are canonicalized (elements sorted, tuples sorted, duplicates
    impossible by construction) so identical configs give identical output
    regardless of scheduling.
    """
    t0 = time.monotonic()
    cached = _cache_load(cache_dir, cfg)
    if cached is not None:
        tuples, counts = cached
    else:
        spec = cfg.spec
        vertices = [
            RingElem(u, v, spec)
            for n, u, v in sorted(
                (n, u, v)
                for u, v, n in iter_disk_coords(spec, cfg.max_abs_sq)
                if n >= cfg.min_abs_sq
            )
        ]
        adj, tested = _pair_graph(spec, vertices)
        limit = 1 if cfg.mode == "find-first" else None
        cliques, explored = _cliques_of_size(adj, cfg.target_size, limit)
        tuples = []
        for clique in cliques:
            t = make_tuple(spec, [vertices[i] for i in clique])  # re-verification
            tuples.append(t)
        tuples.sort(key=lambda t: tuple(z.canonical_key() for z in t.elems))
        counts = (len(vertices), tested, explored)
        if cfg.mode == "find-all":
            _cache_store(cache_dir, cfg, tuples, counts)
    wall_ms = int((time.monotonic() - t0) * 1000)
    return SearchResult(
        config=cfg,
        tuples=tuple(tuples) if cfg.mode != "count" else (),
        count=len(tuples),
        stats=SearchStats(*counts, wall_ms),
    )


def naive_find_m_tuples(cfg: SearchConfig) -> tuple[DiophTuple, ...]:
    """Independent oracle: plain nested combinations with full verification."""
    spec = cfg.spec
    elems = [z for z in enumerate_up_to(spec, cfg.max_abs_sq) if z.abs_sq() >= cfg.min_abs_sq]
    found = []
    for combo in itertools.combinations(elems, cfg.target_size):
        if is_diophantine_tuple(spec, list(combo)):
            found.append(make_tuple(spec, list(combo)))
    found.sort(key=lambda t: tuple(z.canonical_key() for z in t.elems))
    return tuple(found)


# ---------------------------------------------------------------------------
# extension search
# ---------------------------------------------------------------------------


def extend_tuple(t: DiophTuple, max_abs_sq: int) -> list[RingElem]:
    """All d with abs_sq(d) <= max_abs_sq extending t; complete within the bound.

    Witnesses for the smallest element a are enumerated instead of candidate
    d's.  Every valid d satisfies a*d + 1 = w^2, so the integer
    abs_sq(w) = |a*d + 1| <= |a||d| + 1 <= sqrt(abs_sq(a) * max_abs_sq) + 1,
    that is abs_sq(w) <= isqrt(abs_sq(a) * max_abs_sq) + 1: that disk holds
    every witness.  Over an integral domain w'^2 == w^2 only when w' = +/-w,
    and d = (w^2 - 1)/a is fixed by w^2, so walking one of each pair +/-w
    (plus w = 0, which gives d = -1/a when a is a unit) yields each
    candidate exactly once.  The candidates within the bound are then
    verified against every remaining element.
    """
    if max_abs_sq < 1:
        return []
    spec = t.spec
    anchor = min(t.elems, key=RingElem.canonical_key)
    others = [e for e in t.elems if e != anchor]
    na = anchor.abs_sq()
    w_bound = isqrt(na * max_abs_sq) + 1

    # raw coordinate loop: (w^2 - 1) * conj(anchor), then exact division by na
    tc, nc = spec.t, spec.n
    au, av = anchor.u, anchor.v
    acu, nav = au - tc * av, nc * av  # conj(anchor) == (acu, -av)
    candidates = [-anchor.conj()] if na == 1 else []  # w = 0: d = -1/anchor
    for u, v, _nw in iter_disk_coords(spec, w_bound):
        if v < 0 or (v == 0 and u < 0):
            continue  # -w gives the same d as w
        wu = u * u - nc * v * v - 1
        wv = v * (2 * u - tc * v)
        qu = wu * acu + wv * nav
        qv = wv * au - wu * av
        if qu % na or qv % na:
            continue
        du, dv = qu // na, qv // na
        if du * (du - tc * dv) + nc * dv * dv <= max_abs_sq:
            candidates.append(RingElem(du, dv, spec))

    one = spec.one
    out = [
        d
        for d in candidates
        if not d.is_zero()
        and d not in t.elems
        and all(sqrt_in_ring(e * d + one) for e in others)
    ]
    return sorted(out, key=RingElem.canonical_key)


# ---------------------------------------------------------------------------
# the double-regular census behind the small-triple claim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleRegularCensus:
    """Triples arising from both regular branches of in-range pairs."""

    triples: tuple[DiophTuple, ...]
    # one record per contributing pair: both branch elements and whether the
    # union {a, b, c-, c+} verifies as a quadruple (the lemma says never)
    configurations: tuple[dict, ...]


def census_double_regular_triples(
    spec: RingSpec, min_abs_sq: int, max_abs_sq: int
) -> DoubleRegularCensus:
    """Enumerate pairs with elements in the range whose both regular branches
    a+b-2r and a+b+2r are nonzero, and collect the resulting triples.

    This reproduces the check-all-small-triples step of the double-regular
    refutation: the branch elements may lie outside the element range.
    """
    elems = [z for z in enumerate_up_to(spec, max_abs_sq) if z.abs_sq() >= min_abs_sq]
    triples: dict[tuple, DiophTuple] = {}
    configs = []
    for a, b in itertools.combinations(elems, 2):
        r = is_diophantine_pair(a, b)
        if r is None or r.is_zero():
            continue
        c_minus, c_plus = a + b - 2 * r, a + b + 2 * r
        branch = {c_minus, c_plus}
        if len(branch) != 2 or any(c.is_zero() or c in (a, b) for c in branch):
            continue
        union_ok = is_diophantine_tuple(spec, [a, b, c_minus, c_plus])
        configs.append(
            {
                "pair": (a, b),
                "branches": (c_minus, c_plus),
                "union_is_quadruple": union_ok,
            }
        )
        for c in branch:
            t = make_tuple(spec, [a, b, c])
            triples[tuple(z.coords() for z in t.elems)] = t
    ordered = sorted(
        triples.values(), key=lambda t: tuple(z.canonical_key() for z in t.elems)
    )
    return DoubleRegularCensus(tuple(ordered), tuple(configs))


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def sweep_ring_list(b_sq: int = 256) -> list[int]:
    """Every squarefree d < 0 with |d| <= 4*b_sq, descending from -1: the
    rings that hold a non-real element with abs_sq <= b_sq."""
    return [-n for n in range(1, 4 * b_sq + 1) if is_squarefree(n)]


def rational_integer_pass(b_sq: int, size: int) -> list[tuple[int, ...]]:
    """m-tuples of rational integers in [-B, B] with rational-integer witnesses.

    Models every ring beyond the sweep cutoff at once: there the elements and
    witnesses are all rational integers, so a*b + 1 must be a perfect square
    >= 0 in Z.
    """
    limit = isqrt(b_sq)
    elems = [n for n in range(-limit, limit + 1) if n]
    index = {e: i for i, e in enumerate(elems)}
    adj: list[set[int]] = [set() for _ in elems]
    for x, y in itertools.combinations(elems, 2):
        p = x * y + 1
        if p >= 0 and isqrt(p) ** 2 == p:
            adj[index[x]].add(index[y])
            adj[index[y]].add(index[x])
    cliques, _ = _cliques_of_size(adj, size)
    return sorted(tuple(sorted(elems[i] for i in c)) for c in cliques)


@dataclass(frozen=True)
class SweepReport:
    b_sq: int
    size: int
    rings_checked: tuple[int, ...]
    tuples: tuple[DiophTuple, ...]
    rational_pass_tuples: tuple[tuple[int, ...], ...]
    completeness: dict = field(default_factory=dict)
    conjecture_violations: tuple[DiophTuple, ...] = ()
    stats: SearchStats = SearchStats(0, 0, 0, 0)

    @property
    def is_empty(self) -> bool:
        return not self.tuples and not self.rational_pass_tuples


def _sweep_one(args: tuple[int, int, int, str | None]) -> tuple[int, list[dict], tuple]:
    d, b_sq, size, cache_dir = args
    cfg = SearchConfig(RingSpec(d), b_sq, size)
    res = find_m_tuples(cfg, cache_dir)
    st = res.stats
    return d, [t.to_json_dict() for t in res.tuples], (st.elements, st.pairs_tested, st.cliques_explored)


def quintuple_sweep(
    b_sq: int = 256,
    size: int = 5,
    workers: int | None = None,
    cache_dir: str | None = None,
) -> SweepReport:
    """Search every ring in the cutoff set derived from b_sq, plus the
    rational-integer pass, and report all m-tuples found (expected: none
    for size 5 at bound 16)."""
    rings = sweep_ring_list(b_sq)
    jobs = [(d, b_sq, size, cache_dir) for d in rings]
    t0 = time.monotonic()
    # the pool starts all its processes at once; more than jobs or CPUs only idle
    workers = min(workers or 1, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_sweep_one, jobs, chunksize=16))
    else:
        raw = [_sweep_one(j) for j in jobs]
    raw.sort(key=lambda item: -item[0])
    found: list[DiophTuple] = []
    elements = pairs = cliques = 0
    for _d, tuple_dicts, (el, pr, cl) in raw:
        found.extend(DiophTuple.from_json_dict(td) for td in tuple_dicts)
        elements += el
        pairs += pr
        cliques += cl
    rational = rational_integer_pass(b_sq, size)
    violations = tuple(t for t in found if len(t.elems) >= 4 and _violates_strong_bound(t))
    wall_ms = int((time.monotonic() - t0) * 1000)
    return SweepReport(
        b_sq=b_sq,
        size=size,
        rings_checked=tuple(rings),
        tuples=tuple(found),
        rational_pass_tuples=tuple(rational),
        completeness={
            "half_basis_cutoff": 4 * b_sq,
            "integral_basis_cutoff": b_sq,
            "witness_cutoff": b_sq + 1,
            "product_plus_one_bound": b_sq + 1,
            "rings": len(rings),
        },
        conjecture_violations=violations,
        stats=SearchStats(elements, pairs, cliques, wall_ms),
    )


def _violates_strong_bound(t: DiophTuple) -> bool:
    """Conjectured |d| >= 4|ab| for non-standard extensions; recorded, not fatal."""
    a, b, c, d = t.elems[:4]
    verified, _failed = quadruple_extension_candidates(a, b, c)
    if d in verified:
        return False
    return d.abs_sq() < 16 * a.abs_sq() * b.abs_sq()


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


def _cache_load(
    cache_dir: str | None, cfg: SearchConfig
) -> tuple[list[DiophTuple], tuple[int, int, int]] | None:
    """(tuples, search counts) stored for cfg, or None to recompute."""
    if not cache_dir or cfg.mode != "find-all":
        return None
    path = _cache_path(cache_dir, cfg)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        closing = json.loads(lines[-1]) if lines else {}
        counts = tuple(int(x) for x in closing.get("stats", ()))
        if closing.get("count") != len(lines) - 1 or len(counts) != 3:
            return None  # no closing line, tuples missing, or no stats: recompute
        tuples = []
        for line in lines[:-1]:
            data = json.loads(line)
            if data["d"] != cfg.spec.d:
                return None
            t = DiophTuple.from_json_dict(data)  # re-verifies
            if len(t.elems) != cfg.target_size or not all(
                cfg.min_abs_sq <= z.abs_sq() <= cfg.max_abs_sq for z in t.elems
            ):
                return None  # a tuple of another query: recompute
            tuples.append(t)
    except Exception:
        return None  # corrupt or stale cache: recompute
    return tuples, counts


def _cache_store(cache_dir: str | None, cfg: SearchConfig, tuples: list[DiophTuple], counts: tuple) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, cfg)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for t in tuples:
            fh.write(json.dumps(t.to_json_dict(), sort_keys=True) + "\n")
        fh.write(json.dumps({"count": len(tuples), "stats": list(counts)}) + "\n")
    os.replace(tmp, path)

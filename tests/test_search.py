import collections
import functools
import gc
import heapq
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from diophiq import ring, search, tuples
from diophiq.errors import NotDiophantine, PostconditionViolated
from diophiq.ring import RingElem, RingSpec, elements_with_abs_sq, iter_disk_coords, sqrt_coords
from diophiq.search import (
    SearchConfig,
    _cliques_of_size,
    extend_tuple,
    find_m_tuples,
    quintuple_sweep,
    rational_integer_pass,
    sweep_ring_list,
)
from diophiq.tuples import DiophTuple, make_tuple
from oracles import census_double_regular_triples, enumerate_up_to, k_core, naive_find_m_tuples

D1 = RingSpec(-1)
D3 = RingSpec(-3)


def elems_of(t):
    return tuple(z.coords() for z in t.elems)


def test_find_triples_in_gaussian_bound_16():
    res = find_m_tuples(SearchConfig(D1, 256, 3))
    found = {tuple(sorted(z.u for z in t.elems if z.v == 0)) for t in res.tuples if all(z.v == 0 for z in t.elems)}
    # classical integer triples inside |z| <= 16
    assert (1, 3, 8) in found
    assert (2, 4, 12) in found
    assert (3, 5, 16) in found
    for t in res.tuples:
        assert len(t.elems) == 3
        assert all(z.abs_sq() <= 256 for z in t.elems)
    assert res.stats.elements > 700


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(D1, 0, 3)
    with pytest.raises(ValueError):
        SearchConfig(D1, 10, 1)
    # every search finds all tuples: the mode is the class's, not a field
    with pytest.raises(TypeError):
        SearchConfig(D1, 10, 3, mode="find-first")
    assert SearchConfig(D1, 10, 3).mode == "find-all"


def test_paper_triples_present_in_d3_at_bound_16():
    res = find_m_tuples(SearchConfig(D3, 256, 3))
    keys = {elems_of(t) for t in res.tuples}
    assert ((-2, 0), (2, 0), (-2, -4)) in keys
    assert ((-2, 0), (2, 0), (2, 4)) in keys


@pytest.mark.parametrize("d", [-1, -2, -3, -7])
def test_census_pairs_have_two_admissible_regular_branches(d):
    # the oracle census (roots of ab + 1 by norm-form search) against the
    # program: both branches of each pair verify as triples, and the
    # extension search of the pair finds both
    spec = RingSpec(d)
    census = census_double_regular_triples(spec, 1, 20)
    assert census
    for a, b, exts in census:
        pair = make_tuple(spec, [a, b])
        assert set(exts) <= set(extend_tuple(pair, max(c.abs_sq() for c in exts)))
        for c in exts:
            make_tuple(spec, [a, b, c])


def test_clique_search_equals_naive_oracle():
    rng = random.Random(20260809)
    rings = [RingSpec(d) for d in (-1, -2, -3, -7, -11)]
    for _ in range(20):
        spec = rng.choice(rings)
        cfg = SearchConfig(
            spec,
            max_abs_sq=rng.randint(2, 12),
            target_size=rng.randint(2, 4),
        )
        fast = find_m_tuples(cfg)
        slow = naive_find_m_tuples(cfg)
        assert tuple(map(elems_of, fast.tuples)) == tuple(map(elems_of, slow))


def _oracle_degeneracy_order(adj: list[set[int]]) -> list[int]:
    # the search's degeneracy order before the (m-1)-core peel, verbatim
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


def _oracle_cliques_of_size(adj: list[set[int]], m: int):
    # the clique search over the whole graph, verbatim; pins cliques_explored
    order = _oracle_degeneracy_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    later = [
        sorted((w for w in adj[v]), key=pos.__getitem__)
        for v in range(len(adj))
    ]
    later = [[w for w in ws if pos[w] > pos[v]] for v, ws in enumerate(later)]
    out: list[tuple[int, ...]] = []
    explored = 0

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
        extend([v], later[v])
    return out, explored


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 30),
    density=st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 5),
)
def test_clique_search_equals_whole_graph_search(n, density, seed, m):
    # the sparse draws leave the (m-1)-core empty, the middle ones partial and
    # the dense ones whole; cliques, their order and the node count all match
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[a].add(b)
            adj[b].add(a)
    core = len(k_core(adj, m - 1))
    event("(m-1)-core " + ("empty" if not core else "whole" if core == n else "partial"))
    assert _cliques_of_size(adj, m) == _oracle_cliques_of_size(adj, m)


def test_clique_search_k5_interleaved_with_pendant_path():
    # K5 on the even indices 0..8, the path 8-1-3-5-7-9 on the odd ones: the
    # path is peeled for m >= 3 but its vertices still count one node each
    k5 = [0, 2, 4, 6, 8]
    edges = list(itertools.combinations(k5, 2)) + [(8, 1), (1, 3), (3, 5), (5, 7), (7, 9)]
    adj: list[set[int]] = [set() for _ in range(10)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for m in (2, 3, 4, 5):
        assert _cliques_of_size(adj, m) == _oracle_cliques_of_size(adj, m)
    # five peeled path vertices, then one descent of five nodes from the K5's
    # first vertex and one node for each of its other four vertices
    assert _cliques_of_size(adj, 5) == ([tuple(k5)], 5 + 5 + 4)
    assert _cliques_of_size(adj, 6) == ([], 10)  # the 5-core is empty


def test_core_peel_equals_naive_core_on_every_ring_of_the_bound_16_quintuple_sweep(monkeypatch):
    # the size-5 search's 4-core on real pair graphs: ten rings keep one, and
    # none of its vertices descends, so cliques_explored still equals elements
    graphs = {}
    pair_graph = search._pair_graph

    def recording(spec, vertices):
        adj, tested = pair_graph(spec, vertices)
        graphs[spec.d] = adj
        return adj, tested

    monkeypatch.setattr(search, "_pair_graph", recording)
    rep = quintuple_sweep(b_sq=256, size=5, workers=1)
    assert len(graphs) == 315 and rep.stats.cliques_explored == rep.stats.elements
    cores = {}
    for d, adj in graphs.items():
        order = search._degeneracy_order(adj, 4)
        assert len(order) == len(set(order)) and set(order) == k_core(adj, 4), d
        if order:
            cores[d] = len(order)
    assert cores == {-1: 644, -2: 336, -3: 918, -5: 100, -6: 62, -7: 408, -11: 226, -15: 184, -23: 60, -39: 38}
    assert sum(cores.values()) == 2976


def test_ring_search_frees_its_graph_without_a_collection(monkeypatch):
    # a sweep searches ring after ring; a graph kept alive by a reference
    # cycle lingers until the cyclic collector runs and raises the peak memory.
    # A dict cannot be weakly referenced, so the graph is handed on as a list
    # subclass, which can, holding the same dicts
    graphs = []
    pair_graph = search._pair_graph

    class Graph(list):
        pass

    def recording(spec, vertices):
        adj, tested = pair_graph(spec, vertices)
        adj = Graph(adj)
        graphs.append(weakref.ref(adj))
        return adj, tested

    monkeypatch.setattr(search, "_pair_graph", recording)
    gc.disable()
    try:
        for size in (3, 5):
            find_m_tuples(SearchConfig(D3, 64, size))
        assert [ref() for ref in graphs] == [None, None]
    finally:
        gc.enable()


def test_extend_tuple_finds_120_and_8():
    t = make_tuple(D1, [D1.elem(1), D1.elem(3)])
    exts = extend_tuple(t, 256 * 256)
    vals = {z.coords() for z in exts}
    assert (8, 0) in vals
    assert (120, 0) in vals
    for d in exts:
        assert make_tuple(D1, list(t.elems) + [d])


def test_extend_triple_reaches_120():
    t = make_tuple(D1, [D1.elem(1), D1.elem(3), D1.elem(8)])
    exts = extend_tuple(t, 1000**2)
    assert (120, 0) in {z.coords() for z in exts}


def test_extend_bound_zero_empty():
    t = make_tuple(D1, [D1.elem(1), D1.elem(3), D1.elem(8)])
    assert extend_tuple(t, 0) == []


def test_extend_handles_unit_anchor_zero_witness():
    # anchor -1: d = 1 extends {-1} with witness 0
    t = make_tuple(D1, [D1.elem(-1)])
    exts = extend_tuple(t, 4)
    assert D1.elem(1) in exts


@pytest.mark.parametrize("d", [-1, -3])
@pytest.mark.parametrize(
    "coords", [((1, 0), (3, 0), (8, 0)), ((2, 1),)], ids=["unit-anchor", "non-unit-anchor"]
)
def test_extend_enumerates_witness_disk_of_its_bound(monkeypatch, d, coords):
    # a*d + 1 = w^2 and abs_sq(d) <= B give abs_sq(w) <= isqrt(abs_sq(a)*B) + 1
    spec = RingSpec(d)
    t = make_tuple(spec, [spec.elem(u, v) for u, v in coords])
    na = min(t.elems, key=RingElem.canonical_key).abs_sq()
    radii = []
    orbit_walk = search._orbit_walk

    def recording(ring, b_sq):
        radii.append(b_sq)
        return orbit_walk(ring, b_sq)

    monkeypatch.setattr(search, "_orbit_walk", recording)
    extend_tuple(t, 400)
    assert radii == [isqrt(na * 400) + 1]


def _extension_oracle(t, b_sq):
    """Every nonzero z outside t with abs_sq(z) <= b_sq and e*z + 1 a square
    for each e in t, in canonical order.  The disk comes norm by norm from
    the norm-form search, and w is a square iff abs_sq(w) = r^2 and some z of
    abs_sq r has z*z == w: no code shared with sqrt_coords or the witness walk."""
    spec = t.spec

    def is_square(w):
        n = w.abs_sq()
        r = isqrt(n)
        return r * r == n and any(z * z == w for z in elements_with_abs_sq(spec, r))

    disk = [z for n in range(1, b_sq + 1) for z in elements_with_abs_sq(spec, n)]  # (u, v) order within a norm
    return [z for z in disk if z not in t.elems and all(is_square(e * z + spec.one) for e in t.elems)]


@functools.lru_cache(maxsize=None)
def _small_tuples(d):
    """Coordinates of every 1-, 2- and 3-tuple with all abs_sq <= 25."""
    spec = RingSpec(d)
    out = [(z.coords(),) for z in enumerate_up_to(spec, 25)]
    for m in (2, 3):
        out += [elems_of(t) for t in find_m_tuples(SearchConfig(spec, 25, m)).tuples]
    return out


small_tuples = st.sampled_from([-1, -2, -3, -7, -15]).flatmap(
    lambda d: st.tuples(st.just(d), st.sampled_from(_small_tuples(d)))
)


@settings(max_examples=40, deadline=None)
@given(case=small_tuples, b_sq=st.integers(1, 400))
@example(case=(-1, ((1, 0),)), b_sq=225)  # d = 15 = 4^2 - 1 needs abs_sq(w) = isqrt(B) + 1
@example(case=(-1, ((-1, 0),)), b_sq=400)
@example(case=(-1, ((0, 1),)), b_sq=400)  # i
@example(case=(-3, ((0, 1),)), b_sq=400)  # omega
@example(case=(-2, ((-1, -1), (-1, 1), (2, 0))), b_sq=400)  # non-real anchor, abs_sq 3
@example(case=(-1, ((1, 0), (3, 0), (8, 0))), b_sq=400)
def test_extend_matches_brute_force_oracle(case, b_sq):
    d, coords = case
    spec = RingSpec(d)
    t = make_tuple(spec, [spec.elem(u, v) for u, v in coords])
    assert extend_tuple(t, b_sq) == _extension_oracle(t, b_sq)


@pytest.mark.parametrize(
    "d, coords, gained",
    [
        (-3, ((-1, -1), (-1, -2), (-4, -5)), [(24, 8)]),  # half basis: the t*v*v term of a product
        (-11, ((-1, -1), (0, 1), (3, 0)), [(40, 0)]),  # non-real anchor of abs_sq 3
        (-2, ((-1, -1), (-1, 1), (2, 0)), [(24, 0)]),
        (-1, ((1, 0), (3, 0), (8, 0)), []),  # 120 lies past the bound
        (-3, ((1, 0), (3, 0), (8, 0)), []),
    ],
)
def test_extend_matches_norm_form_oracle_at_bound_2500(d, coords, gained):
    spec = RingSpec(d)
    t = make_tuple(spec, [spec.elem(u, v) for u, v in coords])
    oracle = _extension_oracle(t, 2500)
    assert [z.coords() for z in oracle] == gained
    assert extend_tuple(t, 2500) == oracle


def test_sweep_ring_list_is_complete_cutoff():
    rings = sweep_ring_list()
    assert rings[0] == -1
    assert -1024 not in rings  # 1024 is not squarefree
    assert -1023 in rings
    assert len(rings) == sum(1 for n in range(1, 1025) if all(n % (p * p) for p in range(2, 33)))
    assert all(d % 4 != 0 for d in rings)


def test_sweep_ring_list_follows_bound():
    # at bound 20 these rings hold non-real triples such as
    # {(-17,0), (11,-1), (12,1)} in d=-1067, beyond the bound-16 cutoff 1024
    rings = sweep_ring_list(400)
    assert len(rings) == sum(1 for n in range(1, 1601) if all(n % (p * p) for p in range(2, 41)))
    nonreal = {}
    for d in (-1067, -1079, -1155):
        assert d in rings
        res = find_m_tuples(SearchConfig(RingSpec(d), 400, 3))
        nonreal[d] = {elems_of(t) for t in res.tuples if any(z.v for z in t.elems)}
        assert nonreal[d], d
    assert ((-17, 0), (11, -1), (12, 1)) in {tuple(sorted(k)) for k in nonreal[-1067]}


def test_sweep_reports_cutoffs_of_its_bound():
    rep = quintuple_sweep(b_sq=4, size=3, workers=1)
    assert rep.rings_checked == tuple(sweep_ring_list(4))
    assert rep.completeness == {
        "half_basis_cutoff": 16,
        "integral_basis_cutoff": 4,
        "witness_cutoff": 5,
        "product_plus_one_bound": 5,
        "rings": len(rep.rings_checked),
    }


def test_sweep_rejects_size_before_searching(monkeypatch):
    monkeypatch.setattr(search, "_sweep_one", lambda job: pytest.fail("searched a ring"))
    monkeypatch.setattr(search, "find_m_tuples", lambda *args: pytest.fail("searched a ring"))
    with pytest.raises(ValueError, match="target_size must be >= 2"):
        quintuple_sweep(b_sq=4, size=1, workers=1)


def _rational_tuples(res):
    return sorted(tuple(sorted(z.u for z in t.elems)) for t in res.tuples)


def test_rational_integer_pass():
    assert rational_integer_pass(256, 5).tuples == ()
    triples = _rational_tuples(rational_integer_pass(256, 3))
    assert (1, 3, 8) in triples
    assert (-8, -3, -1) in triples
    # it searches the first integral-basis ring past b_sq + 1, in the sweep's list or not
    listed = {}
    for b_sq, d in ((1, -5), (2, -5), (4, -6), (16, -21), (256, -258)):
        assert {t.spec.d for t in rational_integer_pass(b_sq, 2).tuples} == {d}, b_sq
        listed[b_sq] = d in sweep_ring_list(b_sq)
    assert listed == {1: False, 2: True, 4: True, 16: True, 256: True}


def test_rational_integer_pass_equals_integer_brute_force():
    # the independent oracle: combinations of the integers in [-isqrt(B), isqrt(B)]
    # whose pairwise products plus one are perfect squares in Z
    for b_sq in range(1, 65):
        limit = isqrt(b_sq)
        integers = [x for x in range(-limit, limit + 1) if x]
        for size in (2, 3, 4):
            oracle = [
                combo
                for combo in itertools.combinations(integers, size)
                if all(x * y + 1 >= 0 and isqrt(x * y + 1) ** 2 == x * y + 1
                       for x, y in itertools.combinations(combo, 2))
            ]
            res = rational_integer_pass(b_sq, size)
            assert all(z.v == 0 for t in res.tuples for z in t.elems)
            assert _rational_tuples(res) == oracle, (b_sq, size)


def test_every_ring_past_the_cutoffs_holds_only_the_rational_pass_tuples():
    # the sweep's cutoff argument, checked by searching each squarefree |d| <
    # 4B + 60 on its own: a listed ring gives the sweep's tuples, an unlisted
    # one only rational tuples, the rational pass's.  B = 1 has no listed ring
    # for the pass (it is d = -5, past 4B = 4), and the range holds the
    # half-basis rings just below and just past 4B.  A folded ring (integral
    # basis, past B + 1) reports the pass's rows ungated: the gate run in it
    # returns exactly those rows
    for b_sq in range(1, 17):
        cut = 4 * b_sq
        rings = [-n for n in range(1, cut + 60) if n % 4 and all(n % (p * p) for p in range(3, isqrt(n) + 1))]
        half = [-d for d in rings if d % 4 == 1]
        assert max(n for n in half if n <= cut) > cut - 8 and min(n for n in half if n > cut) < cut + 8
        for size in (2, 3):
            rep = quintuple_sweep(b_sq=b_sq, size=size, workers=1)
            swept = {d: [] for d in rep.rings_checked}
            for d, row in rep.rows:
                swept[d].append(row)
            shared = list(rational_integer_pass(b_sq, size).rows)
            for d in _folded_rings(b_sq):
                assert swept[d] == shared, (b_sq, size, d)
                assert search._from_rows(SearchConfig(RingSpec(d), b_sq, size), shared) == shared, (b_sq, size, d)
            for d in rings:
                res = find_m_tuples(SearchConfig(RingSpec(d), b_sq, size))
                if d in swept:
                    assert [t.to_row() for t in res.tuples] == swept[d], (b_sq, size, d)
                else:
                    assert all(z.v == 0 for t in res.tuples for z in t.elems), (b_sq, size, d)
                    assert _rational_tuples(res) == list(rep.rational_pass_tuples), (b_sq, size, d)


def test_single_ring_quintuple_empty_d3():
    res = find_m_tuples(SearchConfig(D3, 256, 5))
    assert res.tuples == ()


def _direct_pair_graph(spec, vertices):
    """Oracle: every pair of (abs_sq, u, v) points through the norm filter and
    sqrt_coords, each edge mapped to its canonical root, the larger of +/-root."""
    tc, nc = spec.t, spec.n
    coords = [(u, v, u - tc * v) for _k, u, v in vertices]
    n = len(coords)
    adj = [{} for _ in range(n)]
    for i, (u1, v1, _) in enumerate(coords):
        for j in range(i + 1, n):
            u2, v2, cu2 = coords[j]
            wu = u1 * u2 - nc * v1 * v2 + 1
            wv = u1 * v2 + v1 * cu2
            nw = wu * (wu - tc * wv) + nc * wv * wv
            r = isqrt(nw)
            root = sqrt_coords(spec, wu, wv, r) if r * r == nw else None
            if root is not None:
                adj[i][j] = adj[j][i] = max(root, (-root[0], -root[1]))
    return adj, n * (n - 1) // 2


def _disk_vertices(spec, b_sq):
    """The vertex list find_m_tuples builds: the sorted (abs_sq, u, v) of the nonzero elements."""
    return sorted((n, u, v) for u, v, n in iter_disk_coords(spec, b_sq))


def _orbit(spec, point):
    """A point's images under z -> -z and z -> conj(z) == (u - t*v, -v)."""
    k, u, v = point
    cu = u - spec.t * v
    return {(k, u, v), (k, -u, -v), (k, cu, -v), (k, -cu, v)}


def test_pair_graph_equals_direct_loop_on_every_ring_at_bound_8():
    rings = sweep_ring_list(64)
    assert len(rings) == 157 and {RingSpec(d).t for d in rings} == {0, 1}
    for d in rings:
        spec = RingSpec(d)
        vertices = _disk_vertices(spec, 64)
        adj, tested = search._pair_graph(spec, vertices)
        assert (adj, tested) == _direct_pair_graph(spec, vertices), d
        # symmetric, an even degree sum, closed under -z and conj(z)
        assert all(i in adj[j] for i in range(len(adj)) for j in adj[i])
        assert sum(map(len, adj)) % 2 == 0
        index = {(u, v): i for i, (_k, u, v) in enumerate(vertices)}
        for image in (lambda u, v: (-u, -v), lambda u, v: (u - spec.t * v, -v)):
            moved = [index[image(u, v)] for _k, u, v in vertices]
            assert all(moved[j] in adj[moved[i]] for i in range(len(adj)) for j in adj[i]), d


@pytest.mark.parametrize("d", [-1, -2, -3])
def test_pair_graph_makes_no_pair_square_test(monkeypatch, d):
    spec = RingSpec(d)
    vertices = _disk_vertices(spec, 64)
    oracle = _direct_pair_graph(spec, vertices)

    def refuse(*args):
        raise AssertionError(f"pair square test {args}")

    monkeypatch.setattr(search, "_is_square", refuse)
    assert search._pair_graph(spec, vertices) == oracle


@settings(max_examples=100, deadline=None)
@given(
    d=st.sampled_from([-1, -2, -3, -5, -7, -15, -163]),
    b_sq=st.integers(1, 100),
    data=st.data(),
)
def test_pair_graph_equals_direct_loop_on_any_vertex_set(d, b_sq, data):
    # B comes from the vertices and the smallest norm from lo: draw an
    # annulus, or any subset of it in any order, empty and asymmetric ones too.
    # The subset's closure under -z and conj(z), in any order, gets the direct
    # loop's graph; a subset that is not closed is refused
    spec = RingSpec(d)
    lo = data.draw(st.integers(1, b_sq + 1), label="lo")
    annulus = [p for p in _disk_vertices(spec, b_sq) if p[0] >= lo]
    subsets = st.lists(st.sampled_from(annulus), unique=True) if annulus else st.nothing()
    vertices = data.draw(st.just(annulus) | subsets, label="vertices")
    closure = set().union(*(_orbit(spec, p) for p in vertices))
    closed = data.draw(st.permutations(sorted(closure)), label="closed")
    assert search._pair_graph(spec, closed) == _direct_pair_graph(spec, closed)
    if closure == set(vertices):
        assert search._pair_graph(spec, vertices) == _direct_pair_graph(spec, vertices)
    else:
        event("not closed")
        with pytest.raises(ValueError):
            search._pair_graph(spec, vertices)


def test_pair_graph_unit_edge_cases():
    spec = D1
    assert search._pair_graph(spec, []) == ([], 0)
    i, minus_i = spec.elem(0, 1), spec.elem(0, -1)
    assert i * i + spec.one == spec.zero == minus_i * minus_i + spec.one  # a*a + 1 = 0^2
    vertices = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)]  # 1, -1, i, -i
    adj, tested = search._pair_graph(spec, vertices)
    # {1, -1} is the one edge, with witness w = 0; no self-loop at +/-i; the
    # walked disk abs_sq(w) <= 2 holds w = +/-1, where w^2 - 1 = 0 gives nothing
    assert (adj, tested) == ([{1: (0, 0)}, {0: (0, 0)}, {}, {}], 6)
    # the witness bound B + 1 is reached: (2+2i)(2-2i) + 1 = 3^2, abs_sq(3) = 8 + 1,
    # and so is its negation; -(2+2i)(2-2i) + 1 = -7 and 1 - 8i are no squares
    rim = [(8, -2, -2), (8, -2, 2), (8, 2, -2), (8, 2, 2)]
    assert search._pair_graph(spec, rim) == ([{1: (3, 0)}, {0: (3, 0)}, {3: (3, 0)}, {2: (3, 0)}], 6)
    for unclosed in ([(1, 1, 0)], [(8, 2, 2), (8, -2, -2)]):  # no -1; no conj(2+2i)
        with pytest.raises(ValueError):
            search._pair_graph(spec, unclosed)
    for ring in (D1, D3):
        units = _disk_vertices(ring, 1)
        assert len(units) == {-1: 4, -3: 6}[ring.d]
        assert search._pair_graph(ring, units) == _direct_pair_graph(ring, units)


def _all_pairs_graph(spec, vertices):
    """Adjacency by testing every vertex pair, each edge mapped to its
    canonical root: a*b + 1 is an edge's witness squared, so its norm is r^2
    and its roots +/-w lie among the elements of abs_sq r, each squared; the
    larger in (u, v) order is canonical.  Shares no code with sqrt_coords or
    the witness walk."""
    tc, nc = spec.t, spec.n
    roots = {}
    adj = [{} for _ in vertices]
    for (i, (_ka, au, av)), (j, (_kb, bu, bv)) in itertools.combinations(enumerate(vertices), 2):
        ab = av * bv
        pu, pv = au * bu - nc * ab + 1, au * bv + av * bu - tc * ab
        norm = pu * (pu - tc * pv) + nc * pv * pv
        r = isqrt(norm)
        if r * r != norm:
            continue
        if r not in roots:
            roots[r] = [(w.u, w.v) for w in elements_with_abs_sq(spec, r)]
        found = [(wu, wv) for wu, wv in roots[r] if (wu * wu - nc * wv * wv, 2 * wu * wv - tc * wv * wv) == (pu, pv)]
        if found:
            adj[i][j] = adj[j][i] = max(found)
    return adj


def test_pair_graph_equals_all_pairs_oracle_at_bound_256():
    # the witness walk's divisor window ceil(M/B) <= k <= isqrt(M) is proved
    # only in _pair_graph's docstring; at its ends lie {5, 16} in d = -1
    # (M = abs_sq(80) = 25 * 256) and {1, -1} (w = 0) in every ring.  All 624
    # rings of the headline sweep at |z| <= 16, in both bases and on each side
    # of the witness cutoff B + 1; they include -258, the first squarefree
    # integral-basis d past B + 1, which the rational pass searches
    rings = sweep_ring_list(256)
    assert len(rings) == 624 and -258 in rings
    assert {RingSpec(d).t for d in rings} == {0, 1}
    edges = 0
    for d in rings:
        spec = RingSpec(d)
        vertices = _disk_vertices(spec, 256)
        adj, _tested = search._pair_graph(spec, vertices)
        assert adj == _all_pairs_graph(spec, vertices), d
        edges += sum(map(len, adj)) // 2
    assert edges == 63844


def _folded_rings(b_sq):
    """Integral-basis rings of the sweep past the witness cutoff b_sq + 1."""
    return [d for d in sweep_ring_list(b_sq) if RingSpec(d).t == 0 and -d > b_sq + 1]


@pytest.mark.parametrize("size", [2, 3])
def test_sweep_folded_rings_report_their_own_search(monkeypatch, size):
    calls = []
    find, ring_search = search.find_m_tuples, search._search

    def counting(cfg):
        calls.append(cfg.spec.d)
        return ring_search(cfg)

    monkeypatch.setattr(search, "_search", counting)
    rep = quintuple_sweep(b_sq=16, size=size, workers=1)
    rings, folded = sweep_ring_list(16), _folded_rings(16)
    assert len(folded) > 1
    assert len(calls) == len(rings) - len(folded) + 1
    direct = {d: find(SearchConfig(RingSpec(d), 16, size)) for d in rings}
    for d in folded:
        assert [t.to_row() for t in rep.tuples if t.spec.d == d] == [t.to_row() for t in direct[d].tuples]
    # size 2 has rational pairs such as {-1, 1}; no triple fits in [-4, 4]
    assert {bool(direct[d].tuples) for d in folded} == {size == 2}
    assert _counts(rep.stats) == tuple(map(sum, zip(*(_counts(r.stats) for r in direct.values()))))


def test_folded_ring_graph_is_the_rational_graph(monkeypatch):
    graphs = {}
    pair_graph = search._pair_graph

    def recording(spec, vertices):
        graphs[spec.d] = (vertices, pair_graph(spec, vertices))
        return graphs[spec.d][1]

    monkeypatch.setattr(search, "_pair_graph", recording)
    integers = [x for x in range(-16, 17) if x]
    edges = {
        frozenset((x, y))
        for x, y in itertools.combinations(integers, 2)
        if x * y + 1 >= 0 and isqrt(x * y + 1) ** 2 == x * y + 1
    }
    folded = _folded_rings(256)
    assert len(folded) == 310
    for d in random.Random(7).sample(folded, 12) + [folded[0], folded[-1]]:
        res = find_m_tuples(SearchConfig(RingSpec(d), 256, 3))
        vertices, (adj, _) = graphs[d]
        assert all(v == 0 for _k, _u, v in vertices) and sorted(u for _k, u, _v in vertices) == integers
        label = [u for _k, u, _v in vertices]
        assert {frozenset((label[i], label[j])) for i in range(len(adj)) for j in adj[i]} == edges
        cliques = sorted(tuple(sorted(label[i] for i in c)) for c in _cliques_of_size(adj, 3)[0])
        assert cliques == _rational_tuples(rational_integer_pass(256, 3)) == _rational_tuples(res)


def _count_pair_graphs(monkeypatch):
    """The list that records the ring of every later _pair_graph call."""
    calls = []
    pair_graph = search._pair_graph

    def counting(spec, vertices):
        calls.append(spec.d)
        return pair_graph(spec, vertices)

    monkeypatch.setattr(search, "_pair_graph", counting)
    return calls


def _counts(stats):
    return stats.elements, stats.pairs_tested, stats.cliques_explored


def test_cache_round_trip(tmp_path, monkeypatch):
    # every ring of a bound-8 size-3 sweep: a hit returns exactly the cold
    # search's rows and stats, and neither searches nor walks a disk
    cache = str(tmp_path)
    cfgs = [SearchConfig(RingSpec(d), 64, 3) for d in sweep_ring_list(64)]
    cold = [find_m_tuples(cfg, cache_dir=cache) for cfg in cfgs]
    calls = _count_pair_graphs(monkeypatch)
    monkeypatch.setattr(ring, "iter_disk_coords", lambda *args: pytest.fail("a hit walked a disk"))
    assert [find_m_tuples(cfg, cache_dir=cache) for cfg in cfgs] == cold
    assert calls == [] and any(res.rows for res in cold)
    # one document, keys unsorted: the ring, the one count that the ring and
    # bound do not fix, and the rows as a sweep's worker ships them
    text = (tmp_path / "d-1_b64_m3.json").read_text()
    assert text.startswith('{"d": -1, "cliques_explored": 447, "rows": [[[')
    assert json.loads(text) == {
        "d": -1,
        "cliques_explored": cold[0].stats.cliques_explored,
        "rows": [[list(elems), list(witnesses)] for elems, witnesses in cold[0].rows],
    }
    assert len(list(tmp_path.iterdir())) == len(cfgs)


def _assert_refused(tmp_path, monkeypatch, cfg, write):
    """Store cfg's search, let write(path, doc) put another file in its place
    (doc is the stored document), and check that the load refuses it: the
    ring is searched again, with the cold result, and its file rewritten."""
    cache = str(tmp_path)
    cold = find_m_tuples(cfg, cache_dir=cache)
    path = Path(search._cache_path(cache, cfg))
    stored = path.read_bytes()
    write(path, json.loads(stored))
    assert not path.exists() or path.read_bytes() != stored
    assert search._cache_load(cache, cfg) is None
    calls = _count_pair_graphs(monkeypatch)
    assert find_m_tuples(cfg, cache_dir=cache) == cold
    assert calls == [cfg.spec.d]  # searched again
    assert path.read_bytes() == stored


def _parent_lines(doc, stats):
    """The rows of doc as the earlier JSON-lines format wrote them: one line per
    tuple with its ring, and a closing line with the count and stats."""
    lines = [json.dumps({"d": doc["d"], "elems": e, "witnesses": w}, sort_keys=True) for e, w in doc["rows"]]
    return "\n".join([*lines, json.dumps({"count": len(lines), "stats": list(stats)})]) + "\n"


def test_cache_corruption_triggers_recompute(tmp_path, monkeypatch):
    # the earlier JSON-lines format, with true counts, under the document's
    # name: it is no one JSON document
    cfg = SearchConfig(D1, 100, 3)
    stats = find_m_tuples(cfg).stats
    _assert_refused(tmp_path, monkeypatch, cfg, lambda path, doc: path.write_text(_parent_lines(doc, stats)))


def test_cache_empty_file_triggers_recompute(tmp_path, monkeypatch):
    _assert_refused(tmp_path, monkeypatch, SearchConfig(D1, 100, 3), lambda path, doc: path.write_text(""))


def test_cache_missing_tuple_line_triggers_recompute(tmp_path, monkeypatch):
    # a file cut short, as by a write that stopped, has lost its last rows:
    # no proper prefix of a stored document parses, so each one is a miss
    cfg = SearchConfig(D1, 16, 3)
    find_m_tuples(cfg, cache_dir=str(tmp_path))
    path = tmp_path / "d-1_b16_m3.json"
    text = path.read_text()
    for end in range(1, len(text)):
        path.write_text(text[:end])
        assert search._cache_load(str(tmp_path), cfg) is None, end
    _assert_refused(tmp_path, monkeypatch, cfg, lambda path, doc: path.write_text(text[: text.rindex("]]")]))


def _only_row(row):
    """A writer for _assert_refused: the stored document with row as its one row."""
    return lambda path, doc: path.write_text(json.dumps({**doc, "rows": [row]}))


def test_cache_tuple_outside_query_triggers_recompute(tmp_path, monkeypatch):
    # each file holds one verified Diophantine tuple of another query: the
    # wrong size (with and without a norm out of range), an element above the
    # bound, and another ring's tuple under the query's ring; the document
    # holds the query's own ring and count, so the gate is what refuses it
    d2 = RingSpec(-2)
    cfg = SearchConfig(D1, 16, 3)
    for elems in (
        [D1.elem(n) for n in (1, 3, 8, 120)],
        [D1.elem(n) for n in (1, 3)],
        [D1.elem(n) for n in (1, 3, 120)],
        [d2.elem(-1), d2.elem(3), d2.elem(2, -2)],
    ):
        _assert_refused(tmp_path, monkeypatch, cfg, _only_row(make_tuple(elems[0].spec, elems).to_row()))


def test_cache_false_tuple_triggers_recompute(tmp_path, monkeypatch):
    # a well-formed row in the query's range, in a document of the query's
    # ring and count, but 1*7 + 1 = 8 is not 3^2 (nor 3*7 + 1 = 22 a square):
    # the load reads it, and only the gate's check_row can refuse it
    data = {"d": -1, "elems": [1, 0, 3, 0, 7, 0], "witnesses": [2, 0, 3, 0, 5, 0]}
    with pytest.raises(NotDiophantine) as refused:
        DiophTuple.from_json_dict(data)
    assert refused.value.pair == (0, 2)
    _assert_refused(tmp_path, monkeypatch, SearchConfig(D1, 64, 3), _only_row([data["elems"], data["witnesses"]]))


def _rewrite(edit):
    """A writer for _assert_refused: edit the stored document, write it back."""
    def write(path, doc):
        edit(doc, doc["rows"])
        path.write_text(json.dumps(doc))

    return write


def _retype(part, value):
    """An edit that gives value, 1.0 or true, to the first coordinate 1 of an
    element (part 0) or a witness (part 1): it squares like 1."""
    def edit(doc, rows):
        xs, i = next((row[part], i) for row in rows for i, x in enumerate(row[part]) if x == 1)
        xs[i] = value

    return edit


def _parent_file(path, doc):
    """Only the earlier format's file of the same rows, with true counts: ignored."""
    path.unlink()
    stats = find_m_tuples(SearchConfig(D1, 64, 3)).stats
    path.with_suffix(".jsonl").write_text(_parent_lines(doc, stats))


@pytest.mark.parametrize(
    "write",
    [
        _rewrite(_retype(0, 1.0)),
        _rewrite(_retype(1, True)),
        _rewrite(lambda doc, rows: doc.__setitem__("d", -2)),
        _rewrite(lambda doc, rows: rows.__setitem__(-1, [rows[-1][0][:4], rows[-1][1][:2]])),  # a true pair
        _rewrite(lambda doc, rows: rows[-1].__setitem__(1, rows[-1][1][:-2])),
        _rewrite(lambda doc, rows: rows[-1][0].__setitem__(slice(0, 2), [0, 0])),
        _rewrite(lambda doc, rows: rows[-1].__setitem__(0, rows[-1][0][2:4] + rows[-1][0][:2] + rows[-1][0][4:])),
        _rewrite(lambda doc, rows: rows.__setitem__(-1, rows[-1][:1])),
        _rewrite(lambda doc, rows: rows.__setitem__(slice(0, 2), rows[1::-1])),
        _rewrite(lambda doc, rows: rows[0][1].__setitem__(0, rows[0][1][0] + 1)),
        _rewrite(lambda doc, rows: doc.pop("cliques_explored")),
        _rewrite(lambda doc, rows: doc.__setitem__("cliques_explored", float(doc["cliques_explored"]))),
        _rewrite(lambda doc, rows: doc.__setitem__("cliques_explored", -1)),
        _parent_file,
    ],
    ids=[
        "float", "bool", "ring", "size", "witnesses", "zero", "order", "no-witnesses",
        "rows-order", "false-witness", "no-cliques-explored", "float-cliques-explored",
        "negative-cliques-explored", "parent-format",
    ],
)
def test_cache_load_checks_each_line_on_its_integers(tmp_path, monkeypatch, write):
    # the refusal table: one edit to a stored document, to a row (a coordinate
    # 1.0 or true, a row of the wrong size, with too few witnesses, a zero
    # element, elements out of order, no witnesses, a false witness), to the
    # rows (out of order), to its ring or to its count, or a file of the
    # earlier format in its place, makes the load refuse the whole file
    _assert_refused(tmp_path, monkeypatch, SearchConfig(D1, 64, 3), write)


def _record_gates(monkeypatch):
    """The list that records, for every later _from_rows call, its config,
    the rows it was given and the (spec, row) of each check_row call it made."""
    gates = []
    check_row, from_rows = search.check_row, search._from_rows

    def checking(spec, *row):
        gates[-1][2].append((spec, row))
        return check_row(spec, *row)

    def gate(cfg, rows):
        gates.append((cfg, list(rows), []))
        return from_rows(cfg, rows)

    monkeypatch.setattr(search, "check_row", checking)
    monkeypatch.setattr(search, "_from_rows", gate)
    return gates


@pytest.mark.parametrize("size", [3, 4])
def test_sweep_roots_nothing_and_gates_each_tuple_once(tmp_path, monkeypatch, size):
    # the pair graph's walk roots every edge, so neither a cold nor a warm
    # sweep takes a square root or builds a tuple through make_tuple.  Each
    # gate call checks each row it is given once, in its own ring: a searched
    # or cached ring's rows, which it reports, and the rational pass's rows in
    # the pass's ring.  The rings past the witness cutoff report the pass's
    # gated rows, and no gate checks them again
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    roots = {"make_tuple": tuples.make_tuple, "sqrt_in_ring": ring.sqrt_in_ring, "sqrt_coords": ring.sqrt_coords}
    for name, fn in roots.items():
        for module in (ring, tuples, search):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, fn))
    gates = _record_gates(monkeypatch)
    folded, reports = set(_folded_rings(64)), []
    for _run in ("cold", "warm"):
        gates.clear()
        rep = quintuple_sweep(64, size, workers=1, cache_dir=str(tmp_path))
        reports.append(rep)
        assert all(checked == [(cfg.spec, row) for row in given] for cfg, given, checked in gates)
        # the pass searches the first folded ring (d = -66), the only gate of a folded ring
        (shared,) = [given for cfg, given, _checked in gates if cfg.spec.d in folded]
        reported = collections.defaultdict(list)
        for d, row in rep.rows:
            reported[d].append(row)
        own = {cfg.spec.d: given for cfg, given, _checked in gates if cfg.spec.d not in folded}
        assert sorted(own) == sorted(d for d in rep.rings_checked if d not in folded)
        assert all(reported[d] == own[d] for d in own)
        assert all(reported[d] == shared for d in folded)
        assert sum(len(checked) for _cfg, _given, checked in gates) == sum(map(len, own.values())) + len(shared)
    assert reports[0] == reports[1] and reports[0].rows
    assert calls == {}


def test_gate_builds_one_canonical_key_per_stored_element(tmp_path, monkeypatch):
    # check_row builds each element's key once, as plain ints, and the gate's
    # size, range and cross-row order checks read the keys it returns: a warm
    # sweep's gates build one key per element of the rows they check (each
    # cached ring's, and the rational pass's, which uses no cache) and no
    # RingElem, so RingElem.canonical_key never runs
    quintuple_sweep(64, 3, workers=1, cache_dir=str(tmp_path))
    built = collections.Counter()
    check_row, canonical_key = search.check_row, RingElem.canonical_key

    def counting_keys(spec, *row):
        keys = check_row(spec, *row)
        built["keys"] += len(keys)
        return keys

    def counting(z):
        built["canonical_key"] += 1
        return canonical_key(z)

    monkeypatch.setattr(search, "check_row", counting_keys)
    monkeypatch.setattr(RingElem, "canonical_key", counting)
    warm = quintuple_sweep(64, 3, workers=1, cache_dir=str(tmp_path))
    folded = set(_folded_rings(64))
    own = sum(len(row[0]) // 2 for d, row in warm.rows if d not in folded)
    assert built == {"keys": own + 3 * len(warm.rational_pass_tuples)} and own > 0


def test_gate_shares_no_point_across_rings(monkeypatch):
    # the rational pass's rows, gated in two rings past the witness cutoff,
    # as the sweep's fold reuses them: each gate call checks each row once in
    # its own ring and returns the rows themselves.  The tuples view of each
    # ring holds RingElems of that ring only, none of the other's
    shared = rational_integer_pass(64, 3)
    gates = _record_gates(monkeypatch)
    views = {}
    for d in _folded_rings(64)[:2]:
        spec = RingSpec(d)
        rows, _stats = search._own_rows(SearchConfig(spec, 64, 3), list(shared.rows), shared.stats)
        assert rows == list(shared.rows) and len(rows) > 0
        views[d] = search.SearchResult(spec, tuple(rows), shared.stats).tuples  # kept alive, so no id is reused
        assert all(z.spec == spec for t in views[d] for z in (*t.elems, *t.witnesses.values()))
    assert [[spec.d for spec, _row in checked] for _cfg, _given, checked in gates] == [[d] * len(shared.rows) for d in views]
    first, second = ({id(z) for t in view for z in (*t.elems, *t.witnesses.values())} for view in views.values())
    assert not first & second


def test_sweep_raises_when_the_gate_refuses_its_own_search(tmp_path, monkeypatch):
    # a pooled ring's rows are the sweep's own search, not a stored file: a
    # refusal there is broken arithmetic, raised, not searched around, and the
    # refused rows are never stored
    sweep_one = search._sweep_one

    def false_witness(job):
        d, rows, stats = sweep_one(job)
        if d == -1:
            (elems, witnesses), *rest = rows
            rows = [(elems, (witnesses[0] + 1, *witnesses[1:])), *rest]
        return d, rows, stats

    monkeypatch.setattr(search, "_sweep_one", false_witness)
    with pytest.raises(PostconditionViolated, match="d=-1"):
        quintuple_sweep(16, 3, workers=1, cache_dir=str(tmp_path))
    assert not list(tmp_path.glob("d-1_*"))


def test_sweep_raises_when_a_rational_pass_row_is_not_real(monkeypatch):
    # the rings past the witness cutoff report the pass's rows ungated, which
    # is sound only while every coordinate has v = 0: the sweep checks that once
    rational_pass = search.rational_integer_pass

    def non_real(b_sq, size):
        res = rational_pass(b_sq, size)
        (elems, witnesses), *rest = res.rows
        return search.SearchResult(res.spec, ((elems, (*witnesses[:-1], 1)), *rest), res.stats)

    monkeypatch.setattr(search, "rational_integer_pass", non_real)
    with pytest.raises(PostconditionViolated, match="v != 0"):
        quintuple_sweep(16, 2, workers=1)


def _plant(path, row):
    """Put row in the cache document at path in place of the row that follows
    it in canonical order, so the document stays in order."""
    doc = json.loads(path.read_text())
    spec, rows = RingSpec(doc["d"]), doc["rows"]

    def key(r):
        return tuple(spec.elem(u, v).canonical_key() for u, v in zip(r[0][::2], r[0][1::2]))

    at = next(i for i, old in enumerate(rows) if key(old) > key(row))
    assert at + 1 == len(rows) or key(row) < key(rows[at + 1])
    rows[at] = row
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_sweep_recomputes_false_and_out_of_range_lines(tmp_path, monkeypatch, workers):
    # the parent's load refuses both files in its gate: a false witness and a
    # norm past the bound.  Each ring is then a miss like a missing file: it
    # goes to _sweep_one, pooled or not, and its file is rewritten
    cache = tmp_path / "cache"
    cold = quintuple_sweep(64, 3, workers=1, cache_dir=str(cache))
    files = {p.name: p.read_bytes() for p in cache.iterdir()}
    false = {"d": -1, "elems": [1, 0, 3, 0, 7, 0], "witnesses": [2, 0, 3, 0, 5, 0]}  # 1*7 + 1 = 8
    beyond = {"d": -2, "elems": [1, 0, 3, 0, 120, 0], "witnesses": [2, 0, 11, 0, 19, 0]}  # abs_sq(120) > 64
    DiophTuple.from_json_dict(beyond)  # a true triple, of a larger bound
    for data in (false, beyond):
        _plant(cache / f"d{data['d']}_b64_m3.json", [data["elems"], data["witnesses"]])
    assert {p.name: p.read_bytes() for p in cache.iterdir()} != files
    stores = []
    store = search._cache_store

    def recording(cache_dir, cfg, found, stats):
        if cache_dir:
            stores.append(cfg.spec.d)
        return store(cache_dir, cfg, found, stats)

    monkeypatch.setattr(search, "_cache_store", recording)
    requested, mapped = _serial_pool(monkeypatch, 2)
    warm = quintuple_sweep(64, 3, workers=workers, cache_dir=str(cache))
    assert warm == cold
    assert stores == [-1, -2]  # _sweep_one's searches of the two refused rings, and no other
    assert (requested, mapped) == (([2], [-1, -2]) if workers > 1 else ([], []))
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == files


def _serial_pool(monkeypatch, cpus):
    """Put a stand-in for ProcessPoolExecutor in place, on cpus CPUs: it
    maps in-process and records max_workers and the rings of the jobs it
    maps.  Returns those two lists."""
    requested, mapped = [], []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            jobs = list(jobs)
            mapped.extend(job[0] for job in jobs)
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    return requested, mapped


def test_all_hit_sweep_starts_no_pool(tmp_path, monkeypatch):
    # the parent reads every pooled ring's file and checks it; no hit is pickled
    cold = quintuple_sweep(16, 3, workers=1, cache_dir=str(tmp_path))
    requested, mapped = _serial_pool(monkeypatch, 4)
    assert quintuple_sweep(16, 3, workers=2, cache_dir=str(tmp_path)) == cold
    assert requested == mapped == []


@pytest.mark.parametrize("k", [2, 3])
def test_sweep_pools_only_the_rings_that_missed(tmp_path, monkeypatch, k):
    cold = quintuple_sweep(16, 3, workers=1, cache_dir=str(tmp_path))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    gone = random.Random(k).sample([d for d in sweep_ring_list(16) if d not in _folded_rings(16)], k)
    for d in gone:
        (tmp_path / f"d{d}_b16_m3.json").unlink()
    requested, mapped = _serial_pool(monkeypatch, 8)
    assert quintuple_sweep(16, 3, workers=100, cache_dir=str(tmp_path)) == cold
    assert requested == [k] and sorted(mapped) == sorted(gone)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_strong_bound_check_takes_no_square_root(monkeypatch):
    # every quadruple of the sweep is verified by the gate that builds it;
    # the strong-bound check reads that tuple's witnesses instead of re-rooting
    calls = collections.Counter()
    checking, checked = [], []
    strong_bound = search._violates_strong_bound

    def counting(fn):
        def wrapped(*args):
            calls["check" if checking else "search"] += 1
            return fn(*args)

        return wrapped

    def check(t):
        checking.append(t)
        try:
            return strong_bound(t)
        finally:
            checked.append(checking.pop())

    for module in (ring, tuples):
        monkeypatch.setattr(module, "sqrt_in_ring", counting(ring.sqrt_in_ring))
    monkeypatch.setattr(search, "_violates_strong_bound", check)
    rep = quintuple_sweep(256, 4, workers=1)
    assert rep.tuples and checked == list(rep.tuples)
    assert rep.conjecture_violations == ()
    assert calls["check"] == 0


def test_concurrent_stores_of_one_config(tmp_path, monkeypatch):
    # two sweeps sharing a cache directory may store one ring at once: here
    # the second store runs between the first one's write and its rename
    cfg = SearchConfig(D1, 64, 3)
    res = find_m_tuples(cfg)
    rows = [t.to_row() for t in res.tuples]
    replace = os.replace
    raced = []

    def racing(src, dst):
        if not raced:
            raced.append(src)
            search._cache_store(str(tmp_path), cfg, rows, res.stats)
        replace(src, dst)

    monkeypatch.setattr(search.os, "replace", racing)
    search._cache_store(str(tmp_path), cfg, rows, res.stats)
    assert [p.name for p in tmp_path.iterdir()] == ["d-1_b64_m3.json"]
    # a store that fails leaves no temp file and the stored file as it was
    with pytest.raises(TypeError):
        search._cache_store(str(tmp_path), cfg, [rows[0], (object(), ())], res.stats)
    assert [p.name for p in tmp_path.iterdir()] == ["d-1_b64_m3.json"]
    assert search._cache_load(str(tmp_path), cfg) == (list(res.rows), res.stats)


@pytest.mark.parametrize("b_sq, rings, cpus, expected", [(1, 3, 4, 3), (2, 6, 4, 4)])
def test_sweep_caps_workers_at_jobs_and_cpus(monkeypatch, b_sq, rings, cpus, expected):
    requested, _mapped = _serial_pool(monkeypatch, cpus)
    rep = quintuple_sweep(b_sq=b_sq, size=2, workers=100_000)
    assert len(rep.rings_checked) == rings
    assert requested == [expected]
    serial = quintuple_sweep(b_sq=b_sq, size=2, workers=1)
    assert [elems_of(t) for t in rep.tuples] == [elems_of(t) for t in serial.tuples]


def test_determinism_workers_independent():
    seq = quintuple_sweep(b_sq=16, size=3, workers=1)
    par = quintuple_sweep(b_sq=16, size=3, workers=4)
    assert [elems_of(t) for t in seq.tuples] == [elems_of(t) for t in par.tuples]
    assert seq.rational_pass_tuples == par.rational_pass_tuples
    assert seq.rings_checked == par.rings_checked


def test_search_import_loads_neither_gap_nor_mpmath():
    # the search layer sits on ring and tuples only; certified arithmetic
    # (gap, exactreal, mpmath) loads only for the commands that use it
    src = str(Path(search.__file__).parents[1])
    code = (
        "import sys, diophiq.search; "
        "print(sorted(m for m in ('diophiq.gap', 'diophiq.exactreal', 'mpmath') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == "[]\n"

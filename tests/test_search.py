import functools
import itertools
import json
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diophiq import search
from diophiq.ring import RingElem, RingSpec, enumerate_up_to, iter_disk_coords
from diophiq.search import (
    SearchConfig,
    _cliques_of_size,
    census_double_regular_triples,
    extend_tuple,
    find_m_tuples,
    naive_find_m_tuples,
    quintuple_sweep,
    rational_integer_pass,
    sweep_ring_list,
)
from diophiq.tuples import is_diophantine_tuple, make_tuple

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
    assert res.count == len(res.tuples)
    assert res.stats.elements > 700


def test_find_m_tuples_modes():
    cfg_all = SearchConfig(D1, 64, 2)
    cfg_first = SearchConfig(D1, 64, 2, mode="find-first")
    cfg_count = SearchConfig(D1, 64, 2, mode="count")
    res_all = find_m_tuples(cfg_all)
    res_first = find_m_tuples(cfg_first)
    res_count = find_m_tuples(cfg_count)
    assert res_all.count == res_count.count > 0
    assert res_count.tuples == ()
    assert res_first.count == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(D1, 0, 3)
    with pytest.raises(ValueError):
        SearchConfig(D1, 10, 1)
    with pytest.raises(ValueError):
        SearchConfig(D1, 10, 3, mode="weird")


def test_paper_triples_present_in_d3_at_bound_16():
    res = find_m_tuples(SearchConfig(D3, 256, 3, min_abs_sq=4))
    keys = {elems_of(t) for t in res.tuples}
    assert ((-2, 0), (2, 0), (-2, -4)) in keys
    assert ((-2, 0), (2, 0), (2, 4)) in keys


def test_census_double_regular_matches_paper():
    census = census_double_regular_triples(D3, 4, 6)
    assert len(census.triples) == 2
    assert {elems_of(t) for t in census.triples} == {
        ((-2, 0), (2, 0), (-2, -4)),
        ((-2, 0), (2, 0), (2, 4)),
    }
    # the union {-2, 2, -2sqrt(-3), 2sqrt(-3)} is never a quadruple
    assert all(not cfg["union_is_quadruple"] for cfg in census.configurations)


def test_clique_search_equals_naive_oracle():
    rng = random.Random(20260809)
    rings = [RingSpec(d) for d in (-1, -2, -3, -7, -11)]
    for _ in range(20):
        spec = rng.choice(rings)
        cfg = SearchConfig(
            spec,
            max_abs_sq=rng.randint(2, 12),
            target_size=rng.randint(2, 4),
            min_abs_sq=rng.choice([1, 1, 4]),
        )
        fast = find_m_tuples(cfg)
        slow = naive_find_m_tuples(cfg)
        assert tuple(map(elems_of, fast.tuples)) == tuple(map(elems_of, slow))


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

    def recording(ring, b_sq):
        radii.append(b_sq)
        return iter_disk_coords(ring, b_sq)

    monkeypatch.setattr(search, "iter_disk_coords", recording)
    extend_tuple(t, 400)
    assert radii and max(radii) <= isqrt(na * 400) + 1


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
    oracle = [
        z
        for z in enumerate_up_to(spec, b_sq)
        if z not in t.elems and is_diophantine_tuple(spec, list(t.elems) + [z])
    ]
    assert extend_tuple(t, b_sq) == oracle


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
    with pytest.raises(ValueError, match="target_size must be >= 2"):
        quintuple_sweep(b_sq=4, size=1, workers=1)


def test_rational_integer_pass():
    assert rational_integer_pass(256, 5) == []
    triples = rational_integer_pass(256, 3)
    assert (1, 3, 8) in triples
    assert (-8, -3, -1) in triples


def test_single_ring_quintuple_empty_d3():
    res = find_m_tuples(SearchConfig(D3, 256, 5))
    assert res.count == 0


def _direct_pair_graph(spec, vertices):
    """Oracle: every pair through the norm filter and the square test."""
    tc, nc = spec.t, spec.n
    coords = [(z.u, z.v, z.u - tc * z.v) for z in vertices]
    n = len(coords)
    adj = [set() for _ in range(n)]
    for i, (u1, v1, _) in enumerate(coords):
        for j in range(i + 1, n):
            u2, v2, cu2 = coords[j]
            wu = u1 * u2 - nc * v1 * v2 + 1
            wv = u1 * v2 + v1 * cu2
            nw = wu * (wu - tc * wv) + nc * wv * wv
            r = isqrt(nw)
            if r * r == nw and search._is_square(spec, wu, wv, r):
                adj[i].add(j)
                adj[j].add(i)
    return adj, n * (n - 1) // 2


def _disk_vertices(spec, b_sq):
    """The vertex list find_m_tuples builds: nonzero elements by (abs_sq, u, v)."""
    return [RingElem(u, v, spec) for n, u, v in sorted((n, u, v) for u, v, n in iter_disk_coords(spec, b_sq))]


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
        index = {z: i for i, z in enumerate(vertices)}
        for image in (lambda z: -z, RingElem.conj):
            moved = [index[image(z)] for z in vertices]
            assert all(moved[j] in adj[moved[i]] for i in range(len(adj)) for j in adj[i]), d


@pytest.mark.parametrize("d", [-1, -2, -3])
def test_pair_graph_tests_each_pair_orbit_once(monkeypatch, d):
    calls = []
    is_square = search._is_square

    def counting(*args):
        calls.append(args)
        return is_square(*args)

    monkeypatch.setattr(search, "_is_square", counting)
    spec = RingSpec(d)
    vertices = _disk_vertices(spec, 64)
    oracle = _direct_pair_graph(spec, vertices)
    norm_filter_hits = len(calls)
    calls.clear()
    assert search._pair_graph(spec, vertices) == oracle
    assert 0 < len(calls) <= norm_filter_hits / 2


def _folded_rings(b_sq):
    """Integral-basis rings of the sweep past the witness cutoff b_sq + 1."""
    return [d for d in sweep_ring_list(b_sq) if RingSpec(d).t == 0 and -d > b_sq + 1]


@pytest.mark.parametrize("size", [2, 3])
def test_sweep_folded_rings_report_their_own_search(monkeypatch, size):
    calls = []
    find = search.find_m_tuples

    def counting(cfg, cache_dir=None):
        calls.append(cfg.spec.d)
        return find(cfg, cache_dir)

    monkeypatch.setattr(search, "find_m_tuples", counting)
    rep = quintuple_sweep(b_sq=16, size=size, workers=1)
    rings, folded = sweep_ring_list(16), _folded_rings(16)
    assert len(folded) > 1
    assert len(calls) == len(rings) - len(folded) + 1
    direct = {d: find(SearchConfig(RingSpec(d), 16, size)) for d in rings}
    for d in folded:
        assert [t.to_json_dict() for t in rep.tuples if t.spec.d == d] == [t.to_json_dict() for t in direct[d].tuples]
    # size 2 has rational pairs such as {-1, 1}; no triple fits in [-4, 4]
    assert {bool(direct[d].count) for d in folded} == {size == 2}
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
        assert all(z.v == 0 for z in vertices) and sorted(z.u for z in vertices) == integers
        label = [z.u for z in vertices]
        assert {frozenset((label[i], label[j])) for i in range(len(adj)) for j in adj[i]} == edges
        cliques = sorted(tuple(sorted(label[i] for i in c)) for c in _cliques_of_size(adj, 3)[0])
        found = sorted(tuple(sorted(z.u for z in t.elems)) for t in res.tuples)
        assert cliques == rational_integer_pass(256, 3) == found


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
    cache = str(tmp_path)
    cfg = SearchConfig(D1, 100, 3)
    calls = _count_pair_graphs(monkeypatch)
    first = find_m_tuples(cfg, cache_dir=cache)
    second = find_m_tuples(cfg, cache_dir=cache)
    assert calls == [-1]  # the second search is served from cache
    assert _counts(second.stats) == _counts(first.stats) == (316, 49770, 854)
    assert tuple(map(elems_of, first.tuples)) == tuple(map(elems_of, second.tuples))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert files[0].name == "d-1_b100_m3.jsonl"


def test_cache_corruption_triggers_recompute(tmp_path, monkeypatch):
    cache = str(tmp_path)
    cfg = SearchConfig(D1, 100, 3)
    find_m_tuples(cfg, cache_dir=cache)
    path = tmp_path / "d-1_b100_m3.jsonl"
    path.write_text('{"d": -1, "elems": [[0, 0]], "witnesses": []}\n')
    calls = _count_pair_graphs(monkeypatch)
    res = find_m_tuples(cfg, cache_dir=cache)
    assert calls == [-1]  # recomputed
    assert res.count > 0


def test_cache_empty_file_triggers_recompute(tmp_path, monkeypatch):
    cfg = SearchConfig(D1, 100, 3)
    first = find_m_tuples(cfg, cache_dir=str(tmp_path))
    assert first.count == 272
    (tmp_path / "d-1_b100_m3.jsonl").write_text("")
    calls = _count_pair_graphs(monkeypatch)
    res = find_m_tuples(cfg, cache_dir=str(tmp_path))
    assert calls == [-1]  # recomputed
    assert res.count == 272


def test_cache_missing_tuple_line_triggers_recompute(tmp_path, monkeypatch):
    cfg = SearchConfig(D1, 100, 3)
    first = find_m_tuples(cfg, cache_dir=str(tmp_path))
    path = tmp_path / "d-1_b100_m3.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[1:]))  # one tuple gone, count line kept
    calls = _count_pair_graphs(monkeypatch)
    res = find_m_tuples(cfg, cache_dir=str(tmp_path))
    assert calls == [-1]  # recomputed
    assert tuple(map(elems_of, res.tuples)) == tuple(map(elems_of, first.tuples))


def test_cache_closing_line_without_stats_triggers_recompute(tmp_path, monkeypatch):
    # the closing line before it carried the search counts: {"count": N}
    cfg = SearchConfig(D1, 100, 3)
    first = find_m_tuples(cfg, cache_dir=str(tmp_path))
    path = tmp_path / "d-1_b100_m3.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + '{"count": 272}\n')
    calls = _count_pair_graphs(monkeypatch)
    res = find_m_tuples(cfg, cache_dir=str(tmp_path))
    assert calls == [-1]  # recomputed
    assert _counts(res.stats) == _counts(first.stats)
    assert path.read_text().splitlines(keepends=True) == lines


def test_cache_tuple_outside_query_triggers_recompute(tmp_path, monkeypatch):
    # each file holds one verified Diophantine tuple of another query and a
    # matching closing line: the wrong size, an element above the bound, and
    # an element below min_abs_sq
    stray = [
        ("d-1_b16_m3.jsonl", SearchConfig(D1, 16, 3), (1, 3, 8, 120), 18),
        ("d-1_b16_m3.jsonl", SearchConfig(D1, 16, 3), (1, 3, 120), 18),
        ("d-1_b16_m3_min2.jsonl", SearchConfig(D1, 16, 3, min_abs_sq=2), (1, 3, 8), 12),
    ]
    for name, cfg, elems, count in stray:
        t = make_tuple(D1, [D1.elem(n) for n in elems])
        closing = '{"count": 1, "stats": [1, 0, 1]}'
        (tmp_path / name).write_text(json.dumps(t.to_json_dict(), sort_keys=True) + "\n" + closing + "\n")
        calls = _count_pair_graphs(monkeypatch)
        res = find_m_tuples(cfg, cache_dir=str(tmp_path))
        assert calls == [-1]  # recomputed
        assert res.count == count
        assert tuple(map(elems_of, res.tuples)) == tuple(map(elems_of, find_m_tuples(cfg).tuples))


@pytest.mark.parametrize("b_sq, rings, cpus, expected", [(1, 3, 4, 3), (2, 6, 4, 4)])
def test_sweep_caps_workers_at_jobs_and_cpus(monkeypatch, b_sq, rings, cpus, expected):
    requested = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
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

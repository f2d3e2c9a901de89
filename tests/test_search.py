import functools
import json
import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diophiq import search
from diophiq.ring import RingElem, RingSpec, enumerate_up_to, iter_disk_coords
from diophiq.search import (
    SearchConfig,
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


def test_rational_integer_pass():
    assert rational_integer_pass(256, 5) == []
    triples = rational_integer_pass(256, 3)
    assert (1, 3, 8) in triples
    assert (-8, -3, -1) in triples


def test_single_ring_quintuple_empty_d3():
    res = find_m_tuples(SearchConfig(D3, 256, 5))
    assert res.count == 0


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path)
    cfg = SearchConfig(D1, 100, 3)
    first = find_m_tuples(cfg, cache_dir=cache)
    second = find_m_tuples(cfg, cache_dir=cache)
    assert second.stats.pairs_tested == 0  # served from cache
    assert tuple(map(elems_of, first.tuples)) == tuple(map(elems_of, second.tuples))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert files[0].name == "d-1_b100_m3.jsonl"


def test_cache_corruption_triggers_recompute(tmp_path):
    cache = str(tmp_path)
    cfg = SearchConfig(D1, 100, 3)
    find_m_tuples(cfg, cache_dir=cache)
    path = tmp_path / "d-1_b100_m3.jsonl"
    path.write_text('{"d": -1, "elems": [[0, 0]], "witnesses": []}\n')
    res = find_m_tuples(cfg, cache_dir=cache)
    assert res.stats.pairs_tested > 0  # recomputed
    assert res.count > 0


def test_cache_empty_file_triggers_recompute(tmp_path):
    cfg = SearchConfig(D1, 100, 3)
    first = find_m_tuples(cfg, cache_dir=str(tmp_path))
    assert first.count == 272
    (tmp_path / "d-1_b100_m3.jsonl").write_text("")
    res = find_m_tuples(cfg, cache_dir=str(tmp_path))
    assert res.stats.pairs_tested > 0  # recomputed
    assert res.count == 272


def test_cache_missing_tuple_line_triggers_recompute(tmp_path):
    cfg = SearchConfig(D1, 100, 3)
    first = find_m_tuples(cfg, cache_dir=str(tmp_path))
    path = tmp_path / "d-1_b100_m3.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[1:]))  # one tuple gone, count line kept
    res = find_m_tuples(cfg, cache_dir=str(tmp_path))
    assert res.stats.pairs_tested > 0  # recomputed
    assert tuple(map(elems_of, res.tuples)) == tuple(map(elems_of, first.tuples))


def test_cache_tuple_outside_query_triggers_recompute(tmp_path):
    # each file holds one verified Diophantine tuple of another query and a
    # matching count line: the wrong size, an element above the bound, and
    # an element below min_abs_sq
    stray = [
        ("d-1_b16_m3.jsonl", SearchConfig(D1, 16, 3), (1, 3, 8, 120), 18),
        ("d-1_b16_m3.jsonl", SearchConfig(D1, 16, 3), (1, 3, 120), 18),
        ("d-1_b16_m3_min2.jsonl", SearchConfig(D1, 16, 3, min_abs_sq=2), (1, 3, 8), 12),
    ]
    for name, cfg, elems, count in stray:
        t = make_tuple(D1, [D1.elem(n) for n in elems])
        (tmp_path / name).write_text(json.dumps(t.to_json_dict(), sort_keys=True) + '\n{"count": 1}\n')
        res = find_m_tuples(cfg, cache_dir=str(tmp_path))
        assert res.stats.pairs_tested > 0  # recomputed
        assert res.count == count
        assert tuple(map(elems_of, res.tuples)) == tuple(map(elems_of, find_m_tuples(cfg).tuples))


def test_determinism_workers_independent():
    seq = quintuple_sweep(b_sq=16, size=3, workers=1)
    par = quintuple_sweep(b_sq=16, size=3, workers=4)
    assert [elems_of(t) for t in seq.tuples] == [elems_of(t) for t in par.tuples]
    assert seq.rational_pass_tuples == par.rational_pass_tuples
    assert seq.rings_checked == par.rings_checked

import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophiq.errors import (
    DuplicateElement,
    NotDiophantine,
    PreconditionViolated,
    ZeroElement,
)
from diophiq.ring import RingSpec
from diophiq.search import SearchConfig, SearchStats, _cache_store
from diophiq.tuples import (
    DiophTuple,
    c_plus_minus,
    forbidden_double_regular,
    make_tuple,
    pair_products_not_square,
    quadruple_extension_candidates,
)
from oracles import enumerate_up_to, is_diophantine_tuple, regular_extensions

D1 = RingSpec(-1)
D3 = RingSpec(-3)
RINGS = [RingSpec(d) for d in (-1, -2, -3, -7, -11)]

TWO_ROOT3 = D3.elem(2, 4)      # 2*sqrt(-3)
NEG_TWO_ROOT3 = D3.elem(-2, -4)


def ints(spec, *ns):
    return [spec.elem(n) for n in ns]


def test_pair_basics():
    assert make_tuple(D1, ints(D1, 1, 3)).witnesses[(0, 1)] == D1.elem(2)
    # {-2, 2*sqrt(-3)} extends: -2 * 2sqrt(-3) + 1 = 1 - 4sqrt(-3) = (2-sqrt(-3))^2
    assert is_diophantine_tuple(D3, [D3.elem(-2), TWO_ROOT3])
    # "13 is not a square": -2sqrt(-3) * 2sqrt(-3) + 1 = 13
    assert not is_diophantine_tuple(D3, [NEG_TWO_ROOT3, TWO_ROOT3])


def test_pair_with_zero_witness():
    # {-1, 1}: product plus one is 0 = 0^2, a valid pair with witness 0
    assert make_tuple(D1, ints(D1, -1, 1)).witnesses[(0, 1)] == D1.zero


def test_make_tuple_classical_quadruple():
    t = make_tuple(D1, ints(D1, 1, 3, 8, 120))
    assert [z.u for z in t.elems] == [1, 3, 8, 120]
    ws = sorted(w.u for w in t.witnesses.values())
    assert ws == [2, 3, 5, 11, 19, 31]
    for (i, j), w in t.witnesses.items():
        assert w * w == t.elems[i] * t.elems[j] + D1.one


def test_make_tuple_paper_triple_and_failure():
    assert is_diophantine_tuple(D3, [D3.elem(-2), D3.elem(2), NEG_TWO_ROOT3])
    with pytest.raises(NotDiophantine) as ei:
        make_tuple(D3, [D3.elem(-2), D3.elem(2), NEG_TWO_ROOT3, TWO_ROOT3])
    # sorted order: (-2,0),(2,0),(-2,-4),(2,4); the +-2sqrt(-3) pair is (2,3)
    assert ei.value.pair == (2, 3)


def test_make_tuple_rejects_bad_input():
    with pytest.raises(ZeroElement):
        make_tuple(D1, ints(D1, 0, 3))
    with pytest.raises(DuplicateElement):
        make_tuple(D1, ints(D1, 3, 3))
    # each repeated element named once, in input order, as u,v
    with pytest.raises(DuplicateElement) as ei:
        make_tuple(D1, ints(D1, 3, 1, 8, 3, 1, 1))
    assert str(ei.value) == "elements not pairwise distinct: 3,0;1,0 repeated"
    with pytest.raises(ValueError):
        make_tuple(D1, [])


def test_regular_extensions():
    assert regular_extensions(D1.elem(1), D1.elem(3)) == (D1.elem(8),)
    exts = regular_extensions(D3.elem(-2), D3.elem(2))
    assert set(exts) == {TWO_ROOT3, NEG_TWO_ROOT3}
    # r = 0 and both branches are 0
    assert regular_extensions(D1.elem(-1), D1.elem(1)) == ()


def test_quadruple_extension_candidates():
    ok, bad = quadruple_extension_candidates(make_tuple(D1, ints(D1, 1, 3, 8)))
    assert ok == (D1.elem(120),)
    assert bad == ()
    ok2, bad2 = quadruple_extension_candidates(make_tuple(D1, ints(D1, 1, 3, 120)))
    assert set(ok2) == {D1.elem(8), D1.elem(1680)}
    assert bad2 == ()


def test_c_plus_minus_fixed_point():
    cp, cm = c_plus_minus(make_tuple(D1, ints(D1, 1, 3, 120)))
    assert {cp, cm} == {D1.elem(1680), D1.elem(8)}
    assert (cp * cm).u == 1 + 9 + 14400 - 6 - 240 - 720 - 4


def test_c_plus_minus_regular_case_gives_zero():
    # d = a+b+2r makes one branch vanish
    cp, cm = c_plus_minus(make_tuple(D1, ints(D1, 1, 3, 8)))
    assert cp.is_zero() or cm.is_zero()


def _random_triples(spec, count, seed):
    """Random Diophantine triples built from regular extensions of small pairs."""
    rng = random.Random(seed)
    elems = list(enumerate_up_to(spec, 40))
    found = []
    while len(found) < count:
        a, b = rng.sample(elems, 2)
        for c in regular_extensions(a, b):  # () when {a, b} is not a pair
            found.append((a, b, c))
            if len(found) >= count:
                break
    return found


@pytest.mark.parametrize("spec", RINGS)
def test_c_plus_minus_identity_on_random_triples(spec):
    for a, b, d in _random_triples(spec, 100, seed=spec.d):
        cp, cm = c_plus_minus(make_tuple(spec, [a, b, d]))  # asserts the product identity internally
        four = spec.elem(4)
        rhs = a * a + b * b + d * d - 2 * (a * b) - 2 * (a * d) - 2 * (b * d) - four
        assert cp * cm == rhs


def test_forbidden_double_regular():
    # the lemma: no verified quadruple is double regular, so the True branch
    # needs a hand-built DiophTuple; {-2, 2, -+2sqrt(-3)} fails only at
    # 12 + 1 = 13, and the check reads no witness but r = sqrt(-3) of ab + 1
    r = make_tuple(D3, [D3.elem(-2), D3.elem(2)]).witnesses[(0, 1)]
    elems = (D3.elem(-2), D3.elem(2), NEG_TWO_ROOT3, TWO_ROOT3)
    assert forbidden_double_regular(DiophTuple(D3, elems, {(0, 1): r}))
    assert not is_diophantine_tuple(D3, elems)
    with pytest.raises(PreconditionViolated):
        forbidden_double_regular(make_tuple(D1, ints(D1, 1, 3, 8, 120)))  # |a| = 1
    with pytest.raises(PreconditionViolated):
        forbidden_double_regular(make_tuple(D1, ints(D1, 2, 4, 12)))


def test_forbidden_quadruple_2_4_12_420():
    # {2,4,12,420}: 12 is a regular completion of {2,4} but 420 is not the
    # other branch (that would be 0), so the configuration is allowed.
    assert not forbidden_double_regular(make_tuple(D1, ints(D1, 2, 4, 12, 420)))


@pytest.mark.parametrize("spec", RINGS)
def test_lemma_products_not_square_on_random_triples(spec):
    for a, b, c in _random_triples(spec, 30, seed='L1'.__hash__() ^ spec.d):
        t = make_tuple(spec, [a, b, c])
        assert pair_products_not_square(t) is None


def test_json_round_trip(tmp_path):
    # the cache's own writer stores the line, and from_json_dict reads it back
    t = make_tuple(D1, ints(D1, 1, 3, 8, 120))
    _cache_store(str(tmp_path), SearchConfig(D1, 120**2, 4), [t.to_row()], SearchStats(0, 0, 0))
    (path,) = tmp_path.iterdir()
    line, _closing = path.read_text().splitlines()
    data = json.loads(line)
    assert data["d"] == -1
    t2 = DiophTuple.from_json_dict(data)
    assert t2.elems == t.elems
    assert t2.witnesses == t.witnesses


def _verified_tuples(spec):
    """make_tuple's output on random triples, on {-1, 1} (witness 0) and on {1, w} where it is a pair."""
    pairs = [[spec.elem(-1), spec.elem(1)], [spec.elem(1), spec.elem(0, 1)]]
    found = [make_tuple(spec, elems) for elems in _random_triples(spec, 20, seed=spec.d)]
    return found + [make_tuple(spec, p) for p in pairs if is_diophantine_tuple(spec, p)]


@pytest.mark.parametrize("spec", [RingSpec(d) for d in (-1, -2, -3, -7)])
def test_from_witnesses_equals_make_tuple(spec):
    found = _verified_tuples(spec)
    if spec.d == -1:
        found.append(make_tuple(D1, ints(D1, 1, 3, 8, 120)))
    assert any(w.is_zero() for t in found for w in t.witnesses.values())
    for t in found:
        assert DiophTuple.from_witnesses(spec, *t.to_row()) == (t, [z.canonical_key() for z in t.elems])


def test_from_witnesses_reads_the_memo_only_for_int_points():
    # 1.0 and True equal 1 and hash like it: under one memo a float or bool
    # row must not fetch the int point, nor leave one for an int row to fetch
    good = make_tuple(D1, ints(D1, 1, 3, 8))
    elems, witnesses = good.to_row()
    assert elems[:2] == (1, 0)
    for bad in (1.0, True):
        memo = {}
        assert DiophTuple.from_witnesses(D1, elems, witnesses, memo)[0] == good
        with pytest.raises(TypeError):
            DiophTuple.from_witnesses(D1, (bad,) + elems[1:], witnesses, memo)
        memo = {}
        with pytest.raises(TypeError):
            DiophTuple.from_witnesses(D1, (bad,) + elems[1:], witnesses, memo)
        t, _keys = DiophTuple.from_witnesses(D1, elems, witnesses, memo)
        assert all(type(x) is int for row in t.to_row() for x in row)


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as e:  # the witness dict makes a DiophTuple unhashable
        return str(e)


def test_dioph_tuple_is_slotted_frozen_and_round_trips():
    t = make_tuple(D1, ints(D1, 1, 3, 8, 120))
    for name in ("spec", "elems", "witnesses"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, None)
    assert not hasattr(t, "__dict__")
    gated, _keys = DiophTuple.from_witnesses(D1, *t.to_row())
    for copy_ in (gated, pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(gated)), copy.deepcopy(gated)):
        assert copy_ == t and copy_.to_row() == t.to_row()
        assert _hash_or_error(copy_) == _hash_or_error(t)


@pytest.mark.parametrize("spec", [RingSpec(d) for d in (-1, -2, -3, -7)])
def test_from_witnesses_refuses_a_false_or_malformed_row(spec):
    for t in _verified_tuples(spec):
        elems, witnesses = t.to_row()
        for k, ((i, j), w) in enumerate(t.witnesses.items()):  # make_tuple's pair order is to_row's
            before, after = witnesses[: 2 * k], witnesses[2 * k + 2 :]
            with pytest.raises(NotDiophantine) as ei:
                DiophTuple.from_witnesses(spec, elems, before + (w + spec.one).coords() + after)
            assert ei.value.pair == (i, j)
            if not w.is_zero():  # -w squares to the same, but is not the canonical root
                with pytest.raises(ValueError):
                    DiophTuple.from_witnesses(spec, elems, before + (-w).coords() + after)
        with pytest.raises(ValueError):
            DiophTuple.from_witnesses(spec, elems, witnesses[:-2])  # a witness missing
        with pytest.raises(ValueError):
            DiophTuple.from_witnesses(spec, elems[:-1], witnesses)  # a coordinate missing
        with pytest.raises(ValueError):
            DiophTuple.from_witnesses(spec, elems[-2:] + elems[:-2], witnesses)  # not in canonical order
        for bad in (float(elems[0]), True):  # a cache line's 1.0 or true would square like 1 but print apart
            with pytest.raises(TypeError):
                DiophTuple.from_witnesses(spec, (bad,) + elems[1:], witnesses)
    with pytest.raises(ValueError):
        DiophTuple.from_witnesses(spec, (), ())


@given(st.sampled_from(RINGS), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=100)
def test_regular_extensions_always_verify(spec, x, y):
    a = spec.elem(x or 1, y)
    b = a + spec.one
    if b.is_zero():
        return
    for c in regular_extensions(a, b):
        assert is_diophantine_tuple(spec, [a, b, c])

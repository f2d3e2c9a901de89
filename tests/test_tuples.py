import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophiq.errors import (
    DuplicateElement,
    EqualElements,
    NotAPair,
    NotDiophantine,
    PreconditionViolated,
    ZeroElement,
)
from diophiq.ring import RingSpec, enumerate_up_to
from diophiq.tuples import (
    DiophTuple,
    c_plus_minus,
    forbidden_double_regular,
    is_diophantine_pair,
    is_diophantine_tuple,
    make_tuple,
    pair_products_not_square,
    quadruple_extension_candidates,
    regular_extensions,
)

D1 = RingSpec(-1)
D3 = RingSpec(-3)
RINGS = [RingSpec(d) for d in (-1, -2, -3, -7, -11)]

TWO_ROOT3 = D3.elem(2, 4)      # 2*sqrt(-3)
NEG_TWO_ROOT3 = D3.elem(-2, -4)


def ints(spec, *ns):
    return [spec.elem(n) for n in ns]


def test_pair_basics():
    assert is_diophantine_pair(D1.elem(1), D1.elem(3)) == D1.elem(2)
    # {-2, 2*sqrt(-3)} extends: -2 * 2sqrt(-3) + 1 = 1 - 4sqrt(-3) = (2-sqrt(-3))^2
    assert is_diophantine_pair(D3.elem(-2), TWO_ROOT3) is not None
    # "13 is not a square": -2sqrt(-3) * 2sqrt(-3) + 1 = 13
    assert is_diophantine_pair(NEG_TWO_ROOT3, TWO_ROOT3) is None


def test_pair_preconditions():
    with pytest.raises(ZeroElement):
        is_diophantine_pair(D1.zero, D1.elem(3))
    with pytest.raises(EqualElements):
        is_diophantine_pair(D1.elem(3), D1.elem(3))


def test_pair_with_zero_witness():
    # {-1, 1}: product plus one is 0 = 0^2, a valid pair with witness 0
    assert is_diophantine_pair(D1.elem(-1), D1.elem(1)) == D1.zero


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
    with pytest.raises(ValueError):
        make_tuple(D1, [])


def test_regular_extensions():
    assert regular_extensions(D1.elem(1), D1.elem(3)) == (D1.elem(8),)
    exts = regular_extensions(D3.elem(-2), D3.elem(2))
    assert set(exts) == {TWO_ROOT3, NEG_TWO_ROOT3}
    # r = 0 and both branches are 0
    assert regular_extensions(D1.elem(-1), D1.elem(1)) == ()


def test_quadruple_extension_candidates():
    ok, bad = quadruple_extension_candidates(D1.elem(1), D1.elem(3), D1.elem(8))
    assert ok == (D1.elem(120),)
    assert bad == ()
    ok2, bad2 = quadruple_extension_candidates(D1.elem(1), D1.elem(3), D1.elem(120))
    assert set(ok2) == {D1.elem(8), D1.elem(1680)}
    assert bad2 == ()


def test_c_plus_minus_fixed_point():
    cp, cm = c_plus_minus(D1.elem(1), D1.elem(3), D1.elem(120))
    assert {cp, cm} == {D1.elem(1680), D1.elem(8)}
    assert (cp * cm).u == 1 + 9 + 14400 - 6 - 240 - 720 - 4


def test_c_plus_minus_regular_case_gives_zero():
    # d = a+b+2r makes one branch vanish
    a, b = D1.elem(1), D1.elem(3)
    d = D1.elem(8)
    cp, cm = c_plus_minus(a, b, d)
    assert cp.is_zero() or cm.is_zero()


def _random_triples(spec, count, seed):
    """Random Diophantine triples built from regular extensions of small pairs."""
    rng = random.Random(seed)
    elems = list(enumerate_up_to(spec, 40))
    found = []
    while len(found) < count:
        a, b = rng.sample(elems, 2)
        try:
            exts = regular_extensions(a, b)
        except NotAPair:
            continue
        for c in exts:
            found.append((a, b, c))
            if len(found) >= count:
                break
    return found


@pytest.mark.parametrize("spec", RINGS)
def test_c_plus_minus_identity_on_random_triples(spec):
    for a, b, d in _random_triples(spec, 100, seed=spec.d):
        cp, cm = c_plus_minus(a, b, d)  # asserts the product identity internally
        four = spec.elem(4)
        rhs = a * a + b * b + d * d - 2 * (a * b) - 2 * (a * d) - 2 * (b * d) - four
        assert cp * cm == rhs


def test_forbidden_double_regular():
    assert forbidden_double_regular(
        D3.elem(-2), D3.elem(2), NEG_TWO_ROOT3, TWO_ROOT3
    )
    assert not forbidden_double_regular(
        D1.elem(1) * 2, D1.elem(2) * 2, D1.elem(6) * 2, D1.elem(210) * 2
    )
    with pytest.raises(PreconditionViolated):
        forbidden_double_regular(D1.elem(1), D1.elem(3), D1.elem(8), D1.elem(120))
    with pytest.raises(PreconditionViolated):
        forbidden_double_regular(D1.elem(1), D1.elem(3), D1.zero, D1.elem(8))


def test_forbidden_quadruple_2_4_12_420():
    # {2,4,12,420}: 12 is a regular completion of {2,4} but 420 is not the
    # other branch (that would be 0), so the configuration is allowed.
    assert not forbidden_double_regular(*ints(D1, 2, 4, 12, 420))


@pytest.mark.parametrize("spec", RINGS)
def test_lemma_products_not_square_on_random_triples(spec):
    for a, b, c in _random_triples(spec, 30, seed='L1'.__hash__() ^ spec.d):
        t = make_tuple(spec, [a, b, c])
        assert pair_products_not_square(t) is None


def test_json_round_trip():
    t = make_tuple(D1, ints(D1, 1, 3, 8, 120))
    data = t.to_json_dict()
    assert data["d"] == -1
    t2 = DiophTuple.from_json_dict(data)
    assert t2.elems == t.elems
    assert t2.witnesses == t.witnesses


@given(st.sampled_from(RINGS), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=100)
def test_regular_extensions_always_verify(spec, x, y):
    a = spec.elem(x or 1, y)
    b = a + spec.one
    if b.is_zero():
        return
    try:
        exts = regular_extensions(a, b)
    except Exception:
        return
    for c in exts:
        assert is_diophantine_tuple(spec, [a, b, c])

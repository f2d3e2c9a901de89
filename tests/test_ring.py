import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diophiq.errors import MixedRings
from diophiq.ring import (
    RingElem,
    RingSpec,
    elements_with_abs_sq,
    is_squarefree,
    iter_disk_coords,
    sqrt_in_ring,
)
from oracles import enumerate_up_to

D1 = RingSpec(-1)
D2 = RingSpec(-2)
D3 = RingSpec(-3)
D7 = RingSpec(-7)
D11 = RingSpec(-11)
RINGS = [D1, D2, D3, D7, D11, RingSpec(-163)]


def to_complex(z: RingElem) -> complex:
    """Numeric oracle: embed the element into C with floating point."""
    d = z.spec.d
    if z.spec.t == 1:
        w = (-1 + 1j * math.sqrt(-d)) / 2
    else:
        w = 1j * math.sqrt(-d)
    return z.u + z.v * w


def test_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(4)
    with pytest.raises(ValueError):
        RingSpec(-4)
    with pytest.raises(ValueError):
        RingSpec(-12)
    assert RingSpec(-3).t == 1
    assert RingSpec(-163).t == 1
    assert RingSpec(-1).t == 0
    assert RingSpec(-2).t == 0


def test_is_squarefree():
    assert [n for n in range(1, 20) if is_squarefree(n)] == [
        1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19,
    ]


def test_add_sub_neg():
    assert D1.elem(1, 0) + D1.elem(0, 1) == D1.elem(1, 1)
    z = D3.elem(7, -5)
    assert (z + (-z)).is_zero()
    assert D3.elem(5, 8) - D3.elem(3, 2) == D3.elem(2, 6)


def test_mixed_rings_rejected():
    with pytest.raises(MixedRings):
        D1.elem(1, 0) + D2.elem(1, 0)
    with pytest.raises(MixedRings):
        D1.elem(1, 0) * D3.elem(1, 0)


def test_mul_fixed_points():
    # omega^2 = -1 - omega in d=-3
    assert D3.elem(0, 1) * D3.elem(0, 1) == D3.elem(-1, -1)
    # (1+i)^2 = 2i
    assert D1.elem(1, 1) * D1.elem(1, 1) == D1.elem(0, 2)
    # (2+sqrt(-3))^2 = 1+4*sqrt(-3): coords (3,2)^2 = (5,8)
    assert D3.elem(3, 2) * D3.elem(3, 2) == D3.elem(5, 8)


@given(
    spec=st.sampled_from(RINGS),
    a=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    b=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
)
def test_mul_matches_complex_oracle(spec, a, b):
    z1, z2 = spec.elem(*a), spec.elem(*b)
    got = to_complex(z1 * z2)
    want = to_complex(z1) * to_complex(z2)
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_abs_sq_fixed_points():
    assert D3.elem(0, 1).abs_sq() == 1
    assert D3.elem(2, 4).abs_sq() == 12
    assert D1.elem(3, 4).abs_sq() == 25
    # half basis at large |d|: abs_sq((0,1)) = (1-d)/4
    assert RingSpec(-163).elem(0, 1).abs_sq() == 41


@given(
    spec=st.sampled_from(RINGS),
    a=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
)
def test_abs_sq_matches_complex_oracle(spec, a):
    z = spec.elem(*a)
    assert abs(z.abs_sq() - abs(to_complex(z)) ** 2) < 1e-9 * max(1, z.abs_sq())


@given(
    spec=st.sampled_from(RINGS),
    a=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    b=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
)
def test_norm_multiplicative(spec, a, b):
    z1, z2 = spec.elem(*a), spec.elem(*b)
    assert (z1 * z2).abs_sq() == z1.abs_sq() * z2.abs_sq()


def test_conj():
    assert D1.elem(2, 3).conj() == D1.elem(2, -3)
    # conj(omega) = -1 - omega in d=-3
    assert D3.elem(0, 1).conj() == D3.elem(-1, -1)


@given(
    spec=st.sampled_from(RINGS),
    a=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    b=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
)
def test_conj_is_ring_homomorphism_and_involution(spec, a, b):
    z, w = spec.elem(*a), spec.elem(*b)
    assert z.conj().conj() == z
    assert (z * w).conj() == z.conj() * w.conj()
    assert (z + w).conj() == z.conj() + w.conj()
    assert z * z.conj() == spec.elem(z.abs_sq(), 0)


def test_sqrt_in_ring():
    assert sqrt_in_ring(D3.zero) == D3.zero
    # 13 is not a square in d=-3
    assert sqrt_in_ring(D3.elem(13, 0)) is None
    # the roots of 5 + 8w are +-(3 + 2w); the canonical one is the larger in canonical order
    assert sqrt_in_ring(D3.elem(5, 8)) == D3.elem(3, 2)
    assert sqrt_in_ring(D3.elem(-3, 2) * D3.elem(-3, 2)) == D3.elem(3, -2)
    assert sqrt_in_ring(D1.elem(0, -1) * D1.elem(0, -1)) == D1.elem(0, 1)


@given(
    spec=st.sampled_from(RINGS),
    a=st.tuples(st.integers(-25, 25), st.integers(-25, 25)),
)
@settings(max_examples=200)
def test_sqrt_round_trip(spec, a):
    z = spec.elem(*a)
    w = z * z
    root = sqrt_in_ring(w)
    assert root in (z, -z)
    assert root.canonical_key() >= (-root).canonical_key()


def _sqrt_by_norm_form(w: RingElem) -> tuple[RingElem, ...]:
    """Reference root search: the elements of absolute value sqrt|w| whose
    square is w, or none when abs_sq(w) is not a perfect square."""
    n = w.abs_sq()
    r = math.isqrt(n)
    if r * r != n:
        return ()
    roots = [z for z in elements_with_abs_sq(w.spec, r) if z * z == w]
    return tuple(sorted(roots, key=RingElem.canonical_key))


BOTH_BASES = RINGS + [RingSpec(-5), RingSpec(-6), RingSpec(-15)]


@given(
    spec=st.sampled_from(BOTH_BASES),
    a=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    kind=st.sampled_from(["any", "square", "minus_square", "norm", "times_conj"]),
)
@example(spec=D1, a=(2, 0), kind="any")         # norm 4, yet 2 = -i(1+i)^2 is no square
@example(spec=D2, a=(3, 1), kind="minus_square")
@example(spec=RingSpec(-15), a=(1, 1), kind="norm")
@settings(max_examples=400)
def test_sqrt_matches_norm_form_search(spec, a, kind):
    z = spec.elem(*a)
    w = {
        "any": z,
        "square": z * z,
        "minus_square": -(z * z),          # abs_sq a perfect square, rarely a square
        "norm": spec.elem(z.abs_sq()),     # likewise
        "times_conj": z * z.conj() * z,    # abs_sq = abs_sq(z)^3
    }[kind]
    root, roots = sqrt_in_ring(w), _sqrt_by_norm_form(w)
    assert root == (roots[-1] if roots else None)
    assert set(roots) == (set() if root is None else {root, -root})


def test_elements_with_abs_sq():
    assert elements_with_abs_sq(D3, 3) == sorted(
        [D3.elem(1, 2), D3.elem(-1, -2), D3.elem(2, 1), D3.elem(-2, -1),
         D3.elem(-1, 1), D3.elem(1, -1)],
        key=lambda z: (z.u, z.v),
    )
    assert set(elements_with_abs_sq(D1, 2)) == {
        D1.elem(1, 1), D1.elem(1, -1), D1.elem(-1, 1), D1.elem(-1, -1)
    }
    # norm form of d=-7 omits 3
    assert elements_with_abs_sq(D7, 3) == []
    assert elements_with_abs_sq(D1, 0) == [D1.zero]
    assert elements_with_abs_sq(D1, -5) == []


@given(spec=st.sampled_from(RINGS), n=st.integers(0, 80))
def test_elements_with_abs_sq_complete_and_exact(spec, n):
    got = elements_with_abs_sq(spec, n)
    # brute force over a safely large coordinate box
    box = 2 * (int(math.isqrt(4 * n)) + 2)
    want = [
        spec.elem(u, v)
        for u in range(-box, box + 1)
        for v in range(-box, box + 1)
        if spec.elem(u, v).abs_sq() == n
    ]
    assert sorted(got, key=lambda z: (z.u, z.v)) == sorted(want, key=lambda z: (z.u, z.v))
    assert len(set(got)) == len(got)


def test_enumerate_up_to_units():
    assert set(enumerate_up_to(D1, 1)) == {
        D1.elem(1, 0), D1.elem(-1, 0), D1.elem(0, 1), D1.elem(0, -1)
    }
    assert len(list(enumerate_up_to(D3, 1))) == 6
    big = RingSpec(-163)
    assert big.elem(0, 1) in set(enumerate_up_to(big, 256))


@given(spec=st.sampled_from(RINGS), b_sq=st.integers(1, 60), min_sq=st.integers(1, 61))
def test_enumerate_matches_elementwise_union(spec, b_sq, min_sq):
    via_levels = [z for n in range(min_sq, b_sq + 1) for z in elements_with_abs_sq(spec, n)]
    via_stream = enumerate_up_to(spec, b_sq, min_sq)
    assert sorted(via_levels, key=RingElem.canonical_key) == via_stream
    keys = [z.canonical_key() for z in via_stream]
    assert keys == sorted(keys)
    assert len(set(via_stream)) == len(via_stream)
    # raw disk iterator agrees
    raw = sorted((u, v) for u, v, n in iter_disk_coords(spec, b_sq) if n >= min_sq)
    assert raw == sorted(z.coords() for z in via_stream)

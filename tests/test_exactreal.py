from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diophiq.errors import UndecidableComparison
from diophiq.exactreal import ExactReal, abs_value, const, sqrt_of


def test_exact_field_ops_stay_exact():
    x = const(3) + const(Fraction(1, 2))
    assert x.exact == Fraction(7, 2)
    assert ((x * 2 - 1) / 3).exact == Fraction(2)
    assert (-x).exact == Fraction(-7, 2)
    assert (x**2).exact == Fraction(49, 4)


def test_sqrt_exactness():
    assert sqrt_of(Fraction(81, 16)).exact == Fraction(9, 4)
    assert sqrt_of(0).exact == 0
    assert sqrt_of(2).exact is None
    with pytest.raises(ValueError):
        sqrt_of(-1)


def test_certified_comparisons():
    s2 = sqrt_of(2)
    assert s2 < Fraction(3, 2)
    assert s2 > Fraction(7, 5)
    # identical expressions compare equal without guessing
    assert s2.compare(sqrt_of(2)) == 0
    # sqrt(2)^2 vs 2 is a tie the interval route cannot certify; it must
    # raise rather than return an uncertified answer.
    with pytest.raises(UndecidableComparison):
        (s2 * s2).compare(2, cap=512)


def test_exact_tie_is_zero():
    assert const(5).compare(Fraction(10, 2)) == 0
    assert const(5) <= 5
    assert const(5) >= 5


def test_log_exp_and_pow():
    # lambda-style quantity: 1 + log(P)/log(L) for P=8, L=4 -> 1 + 1.5 = 2.5
    lam = 1 + const(8).log() / const(4).log()
    assert lam < Fraction(51, 20)
    assert lam > Fraction(49, 20)
    # rational-exponent power: 5^(4/5) strictly between 3 and 4
    p = const(5).pow(Fraction(4, 5))
    assert p > 3 and p < 4
    # integer exponent through .pow stays exact
    assert const(3).pow(2).exact == 9


def test_fmax():
    assert const(3).fmax(7).exact == 7
    m = sqrt_of(2).fmax(1)
    assert m > Fraction(14, 10) and m < Fraction(15, 10)
    m2 = sqrt_of(2).fmax(100)
    assert m2.compare(100) == 0  # pinned to the dyadic point 100
    assert m2 < 101


def test_enclosure_endpoints_are_certified():
    lo, hi = sqrt_of(2).enclosure()
    assert lo < hi
    assert lo * lo < 2 < hi * hi
    lo5, hi5 = const(5).enclosure()
    assert lo5 == hi5 == 5


def test_needs_escalation_for_tight_log():
    # log of (1 + 2^-200): positive but indistinguishable from 0 at 128 bits;
    # the comparison must escalate precision and still certify.
    tiny = 1 + const(Fraction(1, 2**200))
    assert tiny.log() > 0


def _log_frac_sqrt2(k):
    """log of the fractional part of sqrt(2) * 2^k: needs about k bits to see it is > 0."""
    return (sqrt_of(2) * 2**k - isqrt(2 ** (2 * k + 1))).log()


def test_enclosure_escalates_past_log_domain(monkeypatch):
    precs = []
    evaluate = ExactReal._eval

    def recording(this, prec):
        precs.append(prec)
        return evaluate(this, prec)

    monkeypatch.setattr(ExactReal, "_eval", recording)
    lo, hi = _log_frac_sqrt2(200).enclosure()
    assert lo <= hi < 0
    assert max(precs) == 256


def test_precision_cap_applies_to_enclosure_and_compare():
    x = _log_frac_sqrt2(5000)
    with pytest.raises(UndecidableComparison):
        x.enclosure()
    with pytest.raises(UndecidableComparison):
        x.compare(0)


def test_same_exp_and_log_trees_tie():
    assert sqrt_of(2).exp().compare(sqrt_of(2).exp()) == 0
    assert sqrt_of(2).log().compare(sqrt_of(2).log()) == 0


@given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
def test_sqrt_monotone(a, b):
    ra, rb = abs_value(a), abs_value(b)
    if a == b:
        assert ra.compare(rb) == 0
    elif a < b:
        assert ra < rb
    else:
        assert ra > rb

import operator
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophiq.errors import UndecidableComparison
from diophiq.exactreal import ExactReal, _NeedMorePrecision, const, sqrt_of


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


@pytest.fixture
def eval_precs(monkeypatch):
    """The precision of every ExactReal._eval call the test makes."""
    precs = []
    evaluate = ExactReal._eval

    def recording(this, prec):
        precs.append(prec)
        return evaluate(this, prec)

    monkeypatch.setattr(ExactReal, "_eval", recording)
    return precs


def _tight_log():
    """log of (1 + 2^-200): positive but indistinguishable from 0 at 128 bits."""
    return (1 + const(Fraction(1, 2**200))).log()


def test_needs_escalation_for_tight_log():
    # the comparison must escalate precision and still certify
    assert _tight_log() > 0


def test_evaluation_leaves_mpmath_precision_alone(monkeypatch, eval_precs):
    monkeypatch.setattr(mpmath.iv, "prec", 53)
    mp_prec = mpmath.mp.prec
    assert _tight_log() > 0
    assert max(eval_precs) == 256
    assert (mpmath.iv.prec, mpmath.mp.prec) == (53, mp_prec)


def _log_frac_sqrt2(k):
    """log of the fractional part of sqrt(2) * 2^k: needs about k bits to see it is > 0."""
    return (sqrt_of(2) * 2**k - isqrt(2 ** (2 * k + 1))).log()


def test_enclosure_escalates_past_log_domain(eval_precs):
    lo, hi = _log_frac_sqrt2(200).enclosure()
    assert lo <= hi < 0
    assert max(eval_precs) == 256


def test_precision_cap_applies_to_enclosure_and_compare():
    x = _log_frac_sqrt2(5000)
    with pytest.raises(UndecidableComparison):
        x.enclosure()
    with pytest.raises(UndecidableComparison):
        x.compare(0)


def test_repr_names_the_operation():
    x = sqrt_of(2)
    assert repr(x) == "ExactReal(<iv_sqrt_nonneg>)"
    assert repr(x.exp()) == "ExactReal(<_iv_exp>)"
    assert repr(x.log()) == "ExactReal(<_iv_log>)"
    assert repr(x + 1) == "ExactReal(<add>)"


def test_same_exp_and_log_trees_tie():
    assert sqrt_of(2).exp().compare(sqrt_of(2).exp()) == 0
    assert sqrt_of(2).log().compare(sqrt_of(2).log()) == 0


@given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
def test_sqrt_monotone(a, b):
    ra, rb = sqrt_of(a), sqrt_of(b)
    if a == b:
        assert ra.compare(rb) == 0
    elif a < b:
        assert ra < rb
    else:
        assert ra > rb


# --- bit-identity with mpmath's interval context ------------------------------

def _iv_sqrt_nonneg(x):
    return mpmath.iv.sqrt(x if x.a >= 0 else mpmath.iv.mpf([0, x.b]))


def _iv_log(x):
    if not x.a > 0:
        raise _NeedMorePrecision()
    return mpmath.iv.log(x)


# the iv operation each node's function stands for, keyed by its name
IV_OPS = {
    "mpi_add": operator.add,
    "mpi_sub": operator.sub,
    "mpi_mul": operator.mul,
    "mpi_div": operator.truediv,
    "mpi_neg": operator.neg,
    "mpi_pow_int": operator.pow,
    "iv_sqrt_nonneg": _iv_sqrt_nonneg,
    "_iv_log": _iv_log,
    "_iv_exp": lambda x: mpmath.iv.exp(x),
    "iv_max": lambda x, y: mpmath.iv.mpf([max(x.a, y.a), max(x.b, y.b)]),
}


def _iv_value(x: ExactReal):
    """The tree evaluated through mpmath.iv objects at the current iv.prec."""
    if x.exact is not None:
        return mpmath.iv.mpf(x.exact.numerator) / mpmath.iv.mpf(x.exact.denominator)
    args = [_iv_value(a) if isinstance(a, ExactReal) else a for a in x.args]
    return IV_OPS[x.fn.__name__](*args)


def _outcome(evaluate):
    try:
        return evaluate()
    except _NeedMorePrecision:
        return "undecided"


def _fractions(lo):
    # some numerators and denominators are wider than 128 bits, so that
    # converting them rounds before the division does
    wide = st.integers(2**200, 2**260)
    num = st.one_of(st.integers(lo, 40), wide, wide.map(operator.neg) if lo < 0 else wide)
    return st.builds(Fraction, num, st.one_of(st.integers(1, 12), wide)).map(const)


def _pairs(kids, op):
    return st.tuples(kids, kids).map(lambda t: op(*t))


def _divide(x, y):
    return x / y if y.exact != 0 else x


def _power(x, n):
    return x**n if x.exact != 0 or n >= 0 else x


# every value of a positive tree is > 0, and so is the lower end of its
# interval, so it may go under sqrt and log; exp takes a log, so that its
# argument stays small however wide the leaves are
POSITIVE = st.recursive(
    _fractions(1),
    lambda kids: st.one_of(
        _pairs(kids, operator.add),
        _pairs(kids, operator.mul),
        _pairs(kids, operator.truediv),
        _pairs(kids, ExactReal.fmax),
        kids.map(ExactReal.sqrt),
        kids.map(lambda x: x.log().exp()),
    ),
    max_leaves=4,
)

TREES = st.recursive(
    st.one_of(_fractions(-40), POSITIVE.map(ExactReal.log), POSITIVE.map(ExactReal.sqrt)),
    lambda kids: st.one_of(
        _pairs(kids, operator.add),
        _pairs(kids, operator.sub),
        _pairs(kids, operator.mul),
        _pairs(kids, _divide),
        _pairs(kids, ExactReal.fmax),
        kids.map(operator.neg),
        st.tuples(kids, st.integers(-3, 3)).map(lambda t: _power(*t)),
        POSITIVE.map(lambda x: (-x.log()).exp()),
    ),
    max_leaves=6,
)


@settings(deadline=None)
@given(x=TREES)
def test_eval_matches_mpmath_iv_bit_for_bit(x):
    old = mpmath.iv.prec
    for prec in (128, 256):
        try:
            mpmath.iv.prec = prec
            expected = _outcome(lambda: _iv_value(x)._mpi_)
        finally:
            mpmath.iv.prec = old
        assert _outcome(lambda: x._eval(prec)) == expected

import operator
import threading
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophiq.errors import UndecidableComparison
from diophiq.exactreal import (
    PREC_START, ExactReal, _iv_int, _NeedMorePrecision, add, div, exp, fmax, fmin, log, mul, power, sqrt, sub,
)

P = PREC_START


def _sqrt2():
    return ExactReal(lambda prec: sqrt(2, prec))


def test_exact_field_ops_stay_exact():
    x = add(3, Fraction(1, 2), P)
    assert x == Fraction(7, 2)
    assert div(sub(mul(x, 2, P), 1, P), 3, P) == 2
    assert sub(0, x, P) == Fraction(-7, 2)
    assert power(x, 2, P) == Fraction(49, 4)
    # integer operands divide and take negative powers as rationals, not floats
    assert div(1, 3, P) == Fraction(1, 3) and isinstance(div(1, 3, P), Fraction)
    assert power(2, -2, P) == Fraction(1, 4) and isinstance(power(2, -2, P), Fraction)
    assert ExactReal(lambda prec: add(x, 1, prec)).exact == Fraction(9, 2)


def test_sqrt_exactness():
    assert sqrt(Fraction(81, 16), P) == Fraction(9, 4)
    assert sqrt(0, P) == 0
    assert isinstance(sqrt(2, P), tuple)
    assert _sqrt2().exact is None
    assert ExactReal(lambda prec: sqrt(Fraction(81, 16), prec)).exact == Fraction(9, 4)
    with pytest.raises(ValueError):
        sqrt(-1, P)


def test_certified_comparisons():
    s2 = _sqrt2()
    assert s2.compare(Fraction(3, 2)) < 0
    assert s2.compare(Fraction(7, 5)) > 0
    assert s2.compare(ExactReal(lambda prec: Fraction(3, 2))) < 0
    # the same irrational value twice, or sqrt(2)^2 against 2, is a tie the
    # interval route cannot certify; it must raise rather than guess
    with pytest.raises(UndecidableComparison):
        s2.compare(_sqrt2())
    with pytest.raises(UndecidableComparison):
        ExactReal(lambda prec: mul(sqrt(2, prec), sqrt(2, prec), prec)).compare(2)


def test_exact_tie_is_zero():
    five = ExactReal(lambda prec: 5)
    assert five.compare(Fraction(10, 2)) == 0
    assert five.compare(ExactReal(lambda prec: sqrt(25, prec))) == 0
    assert five.compare(4) == 1 and five.compare(6) == -1


def test_log_exp_and_pow():
    # lambda-style quantity: 1 + log(P)/log(L) for P=8, L=4 -> 1 + 1.5 = 2.5
    lam = ExactReal(lambda prec: add(div(log(8, prec), log(4, prec), prec), 1, prec))
    assert lam.compare(Fraction(51, 20)) < 0
    assert lam.compare(Fraction(49, 20)) > 0
    # rational-exponent power: 5^(4/5) = exp(4/5 log 5) strictly between 3 and 4
    p = ExactReal(lambda prec: exp(mul(log(5, prec), Fraction(4, 5), prec), prec))
    assert p.compare(3) > 0 and p.compare(4) < 0
    # log of exactly 1 and exp of exactly 0 are the points 0 and 1
    assert ExactReal(lambda prec: log(1, prec)).enclosure() == (0, 0)
    assert ExactReal(lambda prec: exp(0, prec)).enclosure() == (1, 1)
    assert power(3, 2, P) == 9


def test_fmax():
    assert fmax(3, 7, P) == 7 and fmin(3, 7, P) == 3
    m = ExactReal(lambda prec: fmax(sqrt(2, prec), 1, prec))
    assert m.compare(Fraction(14, 10)) > 0 and m.compare(Fraction(15, 10)) < 0
    m2 = ExactReal(lambda prec: fmax(sqrt(2, prec), 100, prec))
    assert m2.compare(100) == 0  # pinned to the dyadic point 100
    assert m2.compare(101) < 0
    assert ExactReal(lambda prec: fmin(sqrt(2, prec), 1, prec)).compare(1) == 0


def test_enclosure_endpoints_are_certified():
    lo, hi = _sqrt2().enclosure()
    assert lo < hi
    assert lo * lo < 2 < hi * hi
    lo5, hi5 = ExactReal(lambda prec: 5).enclosure()
    assert lo5 == hi5 == 5
    assert type(lo5) is type(hi5) is Fraction


def test_exact_integer_interval_is_both_roundings():
    # an integer that fits in prec bits is rounded once; its floor and ceiling are the same mpf
    floor, ceiling = mpmath.libmp.round_floor, mpmath.libmp.round_ceiling
    from_int = mpmath.libmp.from_int
    for prec in (128, 256):
        for bits in (prec - 1, prec, prec + 1):
            for n in (2 ** (bits - 1), 2 ** (bits - 1) + 1, 2**bits - 1):
                for x in (n, -n):
                    assert _iv_int(x, prec) == (from_int(x, prec, floor), from_int(x, prec, ceiling)), (prec, x)
        lo, hi = _iv_int(2 ** (prec + 1) - 1, prec)
        assert lo != hi  # prec + 1 bits of ones do not fit: the two roundings differ
        assert _iv_int(0, prec) == (from_int(0, prec, floor), from_int(0, prec, ceiling))


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
    return ExactReal(lambda prec: log(add(1, Fraction(1, 2**200), prec), prec))


def test_needs_escalation_for_tight_log():
    # the comparison must escalate precision and still certify
    assert _tight_log().compare(0) > 0


def test_evaluation_leaves_mpmath_precision_alone(monkeypatch, eval_precs):
    monkeypatch.setattr(mpmath.iv, "prec", 53)
    mp_prec = mpmath.mp.prec
    assert _tight_log().compare(0) > 0
    assert max(eval_precs) == 256
    assert (mpmath.iv.prec, mpmath.mp.prec) == (53, mp_prec)


def _log_frac_sqrt2(k):
    """log of the fractional part of sqrt(2) * 2^k: needs about k bits to see it is > 0."""
    return ExactReal(lambda prec: log(sub(mul(sqrt(2, prec), 2**k, prec), isqrt(2 ** (2 * k + 1)), prec), prec))


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
    assert x.exact is None


def test_enclosures_from_two_threads_match_serial():
    # nothing is cached or shared between evaluations
    values = [_log_frac_sqrt2(k) for k in range(100, 400, 15)] + [_sqrt2(), _tight_log()]
    serial = [x.enclosure() for x in values]
    threaded = [None, None]

    def run(i):
        threaded[i] = [x.enclosure() for x in values[i::2]]

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert threaded == [serial[0::2], serial[1::2]]


@given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
def test_sqrt_monotone(a, b):
    ra, rb = ExactReal(lambda prec: sqrt(a, prec)), ExactReal(lambda prec: sqrt(b, prec))
    if a == b:
        assert ra._eval(P) == rb._eval(P)
    else:
        assert ra.compare(rb) == (1 if a > b else -1)


# --- bit-identity with mpmath's interval context ------------------------------
#
# A generated program is a pair: run(prec), built from the helpers, and
# model(), the same operations at mpmath.iv.prec through mpmath.iv, folding
# two exact operands with Fraction arithmetic exactly as the helpers do.

def _model_iv(x):
    """A model value as an mpmath.iv interval: an exact p/q as iv.mpf(p) / iv.mpf(q)."""
    if isinstance(x, Fraction):
        return mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator)
    return x


def _model_sqrt(x):
    if isinstance(x, Fraction):
        if x < 0:
            raise ValueError(x)
        rn, rd = isqrt(x.numerator), isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
        x = _model_iv(x)
    return mpmath.iv.sqrt(x if x.a >= 0 else mpmath.iv.mpf([0, x.b]))


def _model_log(x):
    x = _model_iv(x)
    if not x.a > 0:
        raise _NeedMorePrecision()
    return mpmath.iv.log(x)


def _binary_node(helper, exact_op, iv_op):
    def build(x, y):
        (run_x, model_x), (run_y, model_y) = x, y

        def model():
            a, b = model_x(), model_y()
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                return exact_op(a, b)
            return iv_op(_model_iv(a), _model_iv(b))

        return (lambda prec: helper(run_x(prec), run_y(prec), prec), model)

    return build


ADD = _binary_node(add, operator.add, operator.add)
SUB = _binary_node(sub, operator.sub, operator.sub)
MUL = _binary_node(mul, operator.mul, operator.mul)
DIV = _binary_node(div, operator.truediv, operator.truediv)
MAX = _binary_node(fmax, max, lambda x, y: mpmath.iv.mpf([max(x.a, y.a), max(x.b, y.b)]))
MIN = _binary_node(fmin, min, lambda x, y: mpmath.iv.mpf([min(x.a, y.a), min(x.b, y.b)]))


def SQRT(x):
    run, model = x
    return (lambda prec: sqrt(run(prec), prec), lambda: _model_sqrt(model()))


def LOG(x):
    run, model = x
    return (lambda prec: log(run(prec), prec), lambda: _model_log(model()))


def EXP(x):
    run, model = x
    return (lambda prec: exp(run(prec), prec), lambda: mpmath.iv.exp(_model_iv(model())))


def POWER(x, n):
    run, model = x

    def power_model():
        a = model()
        return a**n if isinstance(a, Fraction) else _model_iv(a) ** n

    return (lambda prec: power(run(prec), n, prec), power_model)


def _leaf(f):
    return (lambda prec: f, lambda: f)


def _outcome(evaluate):
    """The value, or the name of the failure both sides must share."""
    try:
        return evaluate()
    except _NeedMorePrecision:
        return "undecided"
    except ZeroDivisionError:
        return "division by exact zero"


def _fractions(lo):
    # some numerators and denominators are wider than 128 bits, so that
    # converting them rounds before the division does
    wide = st.integers(2**200, 2**260)
    num = st.one_of(st.integers(lo, 40), wide, wide.map(operator.neg) if lo < 0 else wide)
    return st.builds(Fraction, num, st.one_of(st.integers(1, 12), wide)).map(_leaf)


def _pairs(kids, op):
    return st.tuples(kids, kids).map(lambda t: op(*t))


# every value of a positive program is > 0, and so is the lower end of its
# interval, so it may go under sqrt and log; exp takes a log, so that its
# argument stays small however wide the leaves are
POSITIVE = st.recursive(
    _fractions(1),
    lambda kids: st.one_of(
        _pairs(kids, ADD),
        _pairs(kids, MUL),
        _pairs(kids, DIV),
        _pairs(kids, MAX),
        _pairs(kids, MIN),
        kids.map(SQRT),
        kids.map(lambda x: EXP(LOG(x))),
    ),
    max_leaves=4,
)

PROGRAMS = st.recursive(
    st.one_of(_fractions(-40), POSITIVE.map(LOG), POSITIVE.map(SQRT)),
    lambda kids: st.one_of(
        _pairs(kids, ADD),
        _pairs(kids, SUB),
        _pairs(kids, MUL),
        _pairs(kids, DIV),
        _pairs(kids, MAX),
        _pairs(kids, MIN),
        kids.map(lambda x: SUB(_leaf(Fraction(0)), x)),
        st.tuples(kids, st.integers(-3, 3)).map(lambda t: POWER(*t)),
        POSITIVE.map(lambda x: EXP(SUB(_leaf(Fraction(0)), LOG(x)))),
    ),
    max_leaves=6,
)


@settings(deadline=None)
@given(program=PROGRAMS)
def test_eval_matches_mpmath_iv_bit_for_bit(program):
    run, model = program
    old = mpmath.iv.prec
    for prec in (128, 256):
        try:
            mpmath.iv.prec = prec
            expected = _outcome(model)
        finally:
            mpmath.iv.prec = old
        if isinstance(expected, mpmath.iv.mpf):
            expected = expected._mpi_
        assert _outcome(lambda: run(prec)) == expected
        got = ExactReal(run)
        if isinstance(expected, Fraction):
            assert got.exact == expected

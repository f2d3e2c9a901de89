import cmath
import dataclasses
import hashlib
import json
import math
import random
import threading
from fractions import Fraction
from math import isqrt
from pathlib import Path

import mpmath
import pytest

from diophiq import gap
from diophiq.cli import main
from diophiq.errors import PreconditionViolated, TheoremInapplicable
from diophiq.exactreal import ExactReal
from diophiq.gap import (
    ApproxReport,
    K_CONSTANT,
    approx_check,
    chain_certificate,
    gap_hypotheses,
    gap_principle,
    jz_quantities,
)
from diophiq.pell import build_system, solution_from_extension
from diophiq.ring import RingSpec
from diophiq.tuples import make_tuple, omega_lower_bound

D1 = RingSpec(-1)
D3 = RingSpec(-3)


# --- approx_check -----------------------------------------------------------

def quad_2_4_12_420():
    return [D1.elem(n) for n in (2, 4, 12, 420)]


# (d, triple, extension) by coordinates over (1, w); the last three hold
# non-real elements, and d = -3, -7 have the half basis w = (-1+sqrt(d))/2
APPROX_CASES = [
    (-1, [(2, 0), (4, 0), (420, 0)], (12, 0)),
    (-3, [(-1, 2), (3, 3), (-8, 32)], (0, -1)),
    (-5, [(3, 0), (1, -2), (-20, 44)], (-2, 0)),
    (-7, [(2, -1), (3, 1), (-24, 0)], (-1, 0)),
]


def _float_slack_theta1(sys, sol):
    """bound1 - min|+-theta1 - sx/(az)| in complex floats."""
    spec = sys.a.spec
    w = (-1 + cmath.sqrt(spec.d)) / 2 if spec.t == 1 else cmath.sqrt(spec.d)
    a, c, s, x, z = (e.u + e.v * w for e in (sys.a, sys.c, sys.s, sol.x, sol.z))
    theta = cmath.sqrt(s * s / (a * c))
    q = s * x / (a * z)
    e1 = min(abs(theta - q), abs(-theta - q))
    bound1 = abs(s) * abs(c - a) / (abs(a) * math.sqrt(abs(a * c)) * abs(z) ** 2)
    return bound1 - e1


def test_approx_check_positive():
    for d, triple, ext in APPROX_CASES:
        spec = RingSpec(d)
        a, b, c = (spec.elem(u, v) for u, v in triple)
        sys = build_system(a, b, c)
        sol = solution_from_extension(sys, spec.elem(*ext))
        if d == -1:  # triple {2, 4, 420} extended by 12: |c|=420 > 4|b|=16, |a|=2
            assert (sol.x.u, sol.y.u, sol.z.u) == (5, 7, 71)
        rep = approx_check(sys, sol)
        assert isinstance(rep, ApproxReport)
        assert rep.slack_theta1 > 0, d
        assert rep.slack_cap1 > 0, d
        assert rep.slack_theta2 > 0, d
        assert rep.slack_cap2 > 0, d
        assert abs(float(rep.slack_theta1) - _float_slack_theta1(sys, sol)) < 1e-9, d


def test_approx_check_slacks_are_pinned():
    # the exact Fraction endpoints of every margin, so a change in any
    # interval operation or its operand order changes the digest
    lines = []
    for d, triple, ext in APPROX_CASES:
        spec = RingSpec(d)
        sys = build_system(*(spec.elem(u, v) for u, v in triple))
        rep = approx_check(sys, solution_from_extension(sys, spec.elem(*ext)))
        lines.append(repr(dataclasses.astuple(rep)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "60e41c6918af6f6aa09ef6a3ec3e6b0228c691abc6603a34ed3844424a98fc41"


def test_approx_check_false_margin_names_inequality(monkeypatch):
    # a distance far above bound_i must be reported, not escalated
    monkeypatch.setattr(gap, "_branch_distance", lambda *args: ExactReal(lambda prec: 1))
    d, triple, ext = APPROX_CASES[1]
    spec = RingSpec(d)
    sys = build_system(*(spec.elem(u, v) for u, v in triple))
    sol = solution_from_extension(sys, spec.elem(*ext))
    with pytest.raises(TheoremInapplicable) as ei:
        approx_check(sys, sol)
    assert "|theta_1 - q_1| <= bound_1" in str(ei.value)
    assert "|theta_2 - q_2| <= bound_2" in str(ei.value)
    assert "bound_1 < cap" not in str(ei.value)


def test_approx_check_gap_precondition():
    # {1, 3, 8}: |c| = 8 <= 4|b| = 12 and |a| = 1
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(8))
    sol = solution_from_extension(sys, D1.elem(120))
    with pytest.raises(PreconditionViolated) as ei:
        approx_check(sys, sol)
    assert "|c| > 4|b|" in ei.value.failures
    assert "|a| >= 2" in ei.value.failures


def test_approx_check_unit_a_rejected():
    # |a| = 1 alone trips the hypothesis even when the gap condition holds
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(120))
    sol = solution_from_extension(sys, D1.elem(8))
    with pytest.raises(PreconditionViolated) as ei:
        approx_check(sys, sol)
    assert "|a| >= 2" in ei.value.failures


def test_approx_check_hypotheses_read_the_sorted_triple():
    # built from (3, 1, 120), the system's triple is (1, 3, 120): |a| = 1 is
    # refused whatever order the caller gave
    sys = build_system(D1.elem(3), D1.elem(1), D1.elem(120))
    assert (sys.a, sys.b, sys.c) == (D1.elem(1), D1.elem(3), D1.elem(120))
    sol = solution_from_extension(sys, D1.elem(8))
    with pytest.raises(PreconditionViolated) as ei:
        approx_check(sys, sol)
    assert ei.value.failures == ["|a| >= 2"]


# --- jz_quantities ----------------------------------------------------------

def test_jz_worked_example():
    # |a1| = 3, |a2| = 1, |T| = 100, M = 3: everything rational and exact
    rep = jz_quantities(D1.elem(3), D1.elem(1), D1.elem(100))
    assert rep.M_sq == 9
    assert rep.L.exact == Fraction(27 * 97 * 97, 16 * 9 * 1 * 4)
    assert rep.P.exact == Fraction(16 * 9 * 1 * 4, 1) * (2 * 100 + 3 * 3)
    assert rep.l.exact == Fraction(27, 64) * Fraction(100, 97)
    assert rep.p.exact is None  # sqrt(209/194) is irrational
    lo, hi = rep.p.enclosure()
    assert lo * lo < Fraction(2 * 100 + 9, 2 * 100 - 6) < hi * hi
    assert rep.lam.compare(1) > 0


def test_gap_principle_evaluates_no_interval_of_l_p_or_c(monkeypatch):
    # jz_quantities' report defines l, p and c with L, P and lambda, but
    # gap_principle evaluates lambda alone: one evaluation, at 128 bits, whose
    # enclosure is the report's
    evaluated, evaluate = [], ExactReal._eval

    def recording_eval(this, prec):
        evaluated.append(prec)
        return evaluate(this, prec)

    a, b, c = _admissible_triple(random.Random(5), D3)
    monkeypatch.setattr(ExactReal, "_eval", recording_eval)
    res = gap_principle(a, b, c)
    monkeypatch.undo()
    assert evaluated == [128]
    assert res.lambda_enclosure == jz_quantities(b, a, a * b * c).lam.enclosure()


def test_jz_degenerate_inputs():
    with pytest.raises(PreconditionViolated):
        jz_quantities(D1.elem(3), D1.elem(3), D1.elem(100))
    with pytest.raises(PreconditionViolated):
        jz_quantities(D1.elem(3), D1.elem(1), D1.elem(3))  # |T| = M
    with pytest.raises(PreconditionViolated):
        jz_quantities(D1.elem(3), D1.elem(1), D1.elem(2))  # |T| < M


def test_jz_specialization_p_bound():
    # a1=b, a2=a, T=abc with |ac| >= 9 forces p <= sqrt(21/16); here
    # a=3, b=7, c=9 gives |ac| = 27 and p = sqrt(57/52), strictly below
    a, b, c = D1.elem(3), D1.elem(7), D1.elem(9)
    rep = jz_quantities(b, a, a * b * c)
    lo, hi = rep.p.enclosure()
    assert lo * lo <= Fraction(57, 52) <= hi * hi < Fraction(21, 16)


def test_jz_L_gt_1_under_strong_condition():
    # random non-Diophantine coordinate triples with |ac|-1 > |a||b-a| give L > 1
    rng = random.Random(7)
    count = 0
    while count < 25:
        a = D1.elem(rng.randint(1, 9), rng.randint(-3, 3))
        b = D1.elem(rng.randint(1, 9), rng.randint(-3, 3))
        c = D1.elem(rng.randint(30, 90), rng.randint(-20, 20))
        if a == b or a.is_zero() or b.is_zero():
            continue
        na, nb, nc = a.abs_sq(), b.abs_sq(), c.abs_sq()
        nba = (b - a).abs_sq()
        # strong sufficient condition, exactly on squares: (|ac|-1)^2 > |a|^2|b-a|^2
        # guaranteed when na*nc >= 2 and (na*nc - 1)^2 > na*nba... use a safe filter
        if na * nc < 4 * na * nba + 100:
            continue
        t = a * b * c
        if t.abs_sq() <= max(na, nb):
            continue
        rep = jz_quantities(b, a, t)
        assert rep.L.compare(1) > 0
        count += 1


def _iv_sign(expr):
    """Sign of expr() in mpmath's interval context at 128, 256, ... 4096 bits:
    the first certified one, 0 for the point 0, None if still undecided."""
    old = mpmath.iv.prec
    try:
        for prec in (128, 256, 512, 1024, 2048, 4096):
            mpmath.iv.prec = prec
            value = expr(mpmath.iv)
            if value.a > 0:
                return 1
            if value.b < 0:
                return -1
            if value.a == value.b == 0:
                return 0
    finally:
        mpmath.iv.prec = old
    return None


def _l_exceeds_one_by_intervals(k, t2, m_sq):
    """L = 27/k (|T| - M)^2 > 1 in mpmath.iv, kept as the integer predicate's oracle;
    multiplied through by k, so that the tie on squares is the point 0."""
    sign = _iv_sign(lambda iv: 27 * (iv.sqrt(t2) - iv.sqrt(m_sq)) ** 2 - k)
    assert sign is not None, (k, t2, m_sq)
    return sign == 1


def _l_exceeds_one(a1, a2, T):
    """Whether jz_quantities accepts (a1, a2, T), i.e. decides L > 1."""
    try:
        jz_quantities(a1, a2, T)
    except TheoremInapplicable:
        return False
    return True


def test_l_exceeds_one_matches_interval_form():
    # half of the T are drawn next to |T| = sqrt(M) + sqrt(k/27), where L crosses 1
    rng = random.Random(18)
    seen, count = set(), 0
    while count < 400:
        spec = RingSpec(rng.choice((-1, -2, -3, -7)))
        a1, a2 = (spec.elem(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(2))
        if a1 == a2 or a1.is_zero() or a2.is_zero():
            continue
        n1, n2, n12 = a1.abs_sq(), a2.abs_sq(), (a1 - a2).abs_sq()
        k, m_sq = 16 * n1 * n2 * n12, max(n1, n2)
        near = count % 2 == 1
        if near:
            u = isqrt((isqrt(27 * m_sq) + isqrt(k)) ** 2 // 27) + rng.randint(-2, 2)
        else:
            u = rng.randint(1, 4 * isqrt(k))
        T = spec.elem(u, rng.randint(0, 1))
        if T.abs_sq() <= m_sq:
            continue
        holds = _l_exceeds_one(a1, a2, T)
        assert holds == _l_exceeds_one_by_intervals(k, T.abs_sq(), m_sq), (a1, a2, T)
        seen.add((near, holds))
        count += 1
    assert len(seen) == 4, seen  # both outcomes, near the tie and away from it


def test_l_exceeds_one_is_false_at_the_exact_tie():
    # in Z[sqrt(-2)], a1 = -6 and a2 = -4 - sqrt(-2) give k = 16*36*18*6 = 27*48^2
    # and M = 36, so |T| = 6 + 48 = 54 makes L = 27/k * 48^2 exactly 1
    D2 = RingSpec(-2)
    a1, a2 = D2.elem(-6), D2.elem(-4, -1)
    k = 16 * 36 * 18 * 6
    assert 27 * (54 - 6) ** 2 == k
    assert not _l_exceeds_one_by_intervals(k, 54**2, 36)
    assert not _l_exceeds_one(a1, a2, D2.elem(54))
    assert _l_exceeds_one(a1, a2, D2.elem(55))


# --- gap_principle -----------------------------------------------------------

def test_gap_hypothesis_failures_listed():
    with pytest.raises(PreconditionViolated) as ei:
        gap_principle(D1.elem(1), D1.elem(2), D1.elem(3))
    msgs = ei.value.failures
    assert "|b| > 5" in msgs
    assert "|c| > |b|^15" in msgs
    assert "|ac| >= 9" in msgs
    assert gap_hypotheses(D1.elem(1), D1.elem(2), D1.elem(3)) == msgs


def _admissible_triple(rng, spec):
    while True:
        a = spec.elem(rng.randint(1, 5), rng.randint(-2, 2))
        if a.is_zero():
            continue
        na = a.abs_sq()
        b = spec.elem(rng.randint(6, 14), rng.randint(-4, 4))
        nb = b.abs_sq()
        if nb <= 25 or 4 * nb < 9 * na:
            continue
        target = nb**15
        u = isqrt(target) + rng.randint(1, 10**6)
        c = spec.elem(u, rng.randint(0, 1000))
        if c.abs_sq() <= target or na * c.abs_sq() < 81:
            continue
        return a, b, c


def test_gap_principle_bound_is_exact_power():
    rng = random.Random(42)
    a, b, c = _admissible_triple(rng, D1)
    res = gap_principle(a, b, c)
    assert res.k_constant == K_CONSTANT == 4728
    assert res.bound_abs_sq == (4728**20) ** 2 * c.abs_sq() ** 50
    lo, hi = res.lambda_enclosure
    assert 1 < lo < hi < Fraction(19, 10)
    assert res.checks["210|b|^3|b-a|^3.8|a|^0.8 < (|ac|-1)^0.8"]


def _exact_reals(value):
    """Every ExactReal reachable from value through dataclass fields and containers."""
    if isinstance(value, ExactReal):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    elif not isinstance(value, (tuple, list)):
        return []
    return [x for v in value for x in _exact_reals(v)]


def test_gap_principle_result_is_plain_data():
    a, b, c = _admissible_triple(random.Random(42), D1)
    res = gap_principle(a, b, c)
    assert res == gap_principle(a, b, c)
    assert _exact_reals(res) == []
    assert _exact_reals(jz_quantities(b, a, a * b * c))  # the walk does find them


AUXILIARY = "210|b|^3|b-a|^3.8|a|^0.8 < (|ac|-1)^0.8"


def _auxiliary_holds(na, nb, nbma, nc):
    return gap._exact_checks(na, nb, nbma, nc)[AUXILIARY]


def _auxiliary_by_intervals(na, nb, nbma, nc):
    """The inequality in its fractional-power form in mpmath.iv, kept as the
    integer predicate's oracle; None where no precision up to 4096 bits decides it."""

    def rhs_minus_lhs(iv):
        lhs = 210 * iv.sqrt(nb) ** 3 * iv.sqrt(nbma) ** (iv.mpf(19) / 5) * iv.sqrt(na) ** (iv.mpf(4) / 5)
        return (iv.sqrt(na * nc) - 1) ** (iv.mpf(4) / 5) - lhs

    sign = _iv_sign(rhs_minus_lhs)
    return None if sign is None else sign == 1


def test_auxiliary_inequality_matches_interval_form():
    # inputs ignore the gap hypotheses, under which the check may always hold;
    # half of them put nc where (sqrt(na*nc) - 1)^8 lies next to X
    rng = random.Random(1807)
    seen = set()
    for i in range(400):
        na, nb, nbma = rng.randint(1, 40), rng.randint(1, 300), rng.randint(1, 400)
        if i % 2:
            # (sqrt(na*nc) - 1)^8 == X at na*nc = (X^(1/8) + 1)^2, X^(1/8) to 64 bits
            x = 210**10 * nb**15 * nbma**19 * na**4
            root = isqrt(isqrt(isqrt(x << 512)))
            nc = (root + 2**64) ** 2 // (na << 128) + rng.randint(-2, 2)
        else:
            nc = rng.randint(1, 10 ** rng.randint(1, 60))
        nc = max(nc, 2)  # |ac| > 1, so (|ac| - 1)^0.8 is a power of a positive number
        holds = _auxiliary_holds(na, nb, nbma, nc)
        assert holds == _auxiliary_by_intervals(na, nb, nbma, nc), (na, nb, nbma, nc)
        seen.add((i % 2, holds))
    assert len(seen) == 4, seen  # both outcomes, near the tie and away from it


def test_auxiliary_inequality_is_false_at_the_exact_tie():
    # |ac| = 1 and b = a make both sides the point 0
    assert _auxiliary_by_intervals(1, 26, 0, 1) is False
    assert not _auxiliary_holds(1, 26, 0, 1)


def _lambda_by_intervals(na, nb, nbma, nc):
    """lambda > 1 and lambda < 1.9 in mpmath.iv, kept as the exact checks' oracle."""
    k, t, m, mu = 16 * na * nb * nbma, na * nb * nc, max(na, nb), min(na, nb, nbma)

    def lam(iv):
        L = iv.mpf(27) / k * (iv.sqrt(t) - iv.sqrt(m)) ** 2
        P = k * (2 * iv.sqrt(t) + 3 * iv.sqrt(m)) / iv.sqrt(mu) ** 3
        return 1 + iv.log(P) / iv.log(L)

    above, below = _iv_sign(lambda iv: lam(iv) - 1), _iv_sign(lambda iv: lam(iv) - iv.mpf(19) / 10)
    assert None not in (above, below), (na, nb, nbma, nc)
    return above == 1, below == -1


def _lambda_tie_nc(na, nb, nbma):
    """nc next to lambda = 1.9, by float bisection on x = sqrt(t).

    lambda < 1.9 iff f(x) = 10 log P - 9 log L < 0, and f falls from +inf
    at L = 1 (x = sqrt(m) + sqrt(k/27)) towards -inf.
    """
    k, m, mu = 16 * na * nb * nbma, max(na, nb), min(na, nb, nbma)
    rm = math.sqrt(m)

    def f(x):
        return 10 * math.log(k * (2 * x + 3 * rm) / mu**1.5) - 9 * math.log(27 * (x - rm) ** 2 / k)

    lo = hi = rm + math.sqrt(k / 27)
    while f(hi) > 0:
        lo, hi = hi, 2 * hi
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return round(lo * lo / (na * nb))


def test_lambda_checks_match_interval_form():
    # raw squared absolute values with L > 1; half put nc next to lambda = 1.9.
    # k = 16 na nb nbma >= 16 mu^3 makes P > 1, so lambda > 1 always holds here
    rng = random.Random(1900)
    seen, count = set(), 0
    while count < 400:
        na, nb, nbma = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        tie = _lambda_tie_nc(na, nb, nbma)
        near = count % 2 == 1
        nc = max(1, tie + rng.randint(-2, 2) if near else rng.randint(1, 3 * tie))
        k, t, m = 16 * na * nb * nbma, na * nb * nc, max(na, nb)
        if not _l_exceeds_one_by_intervals(k, t, m):
            continue
        checks = gap._exact_checks(na, nb, nbma, nc)
        holds = (checks["lambda > 1"], checks["lambda < 1.9"])
        assert holds == _lambda_by_intervals(na, nb, nbma, nc), (na, nb, nbma, nc)
        assert holds[0]
        seen.add((near, holds[1]))
        count += 1
    assert len(seen) == 4, seen  # both outcomes, near the tie and away from it


def _sign_by_integers(a, b, n):
    """a + b*sqrt(n) > 0 on integers: exact for square n; otherwise scaled by s,
    with |a + b*sqrt(n)| >= 1/(|a| + |b| sqrt(n)), so isqrt(n s^2) cannot flip it."""
    r = isqrt(n)
    if r * r == n:
        return a + b * r > 0
    s = abs(b) * (abs(a) + abs(b) * (r + 1)) + 1
    return a * s + b * isqrt(n * s * s) > 0


def test_sign_kernel_matches_integer_arithmetic():
    # every sign of a and b, n = 0, and exact ties a = -b*sqrt(n) at square n
    for n in (0, 1, 4, 9, 2, 3, 7):
        for a in range(-10, 11):
            for b in range(-4, 5):
                assert gap._positive(a, b, n) == _sign_by_integers(a, b, n), (a, b, n)
    for a, b, n in ((-6, 2, 9), (6, -2, 9), (0, 0, 5), (0, 5, 0), (0, -5, 0)):
        assert not gap._positive(a, b, n)
    rng = random.Random(25)
    for _ in range(2000):
        n = rng.randint(0, 10**12) ** rng.choice((1, 2))
        b = rng.randint(-10**6, 10**6)
        a = -b * isqrt(n) + rng.randint(-3, 3) if rng.random() < 0.5 else rng.randint(-10**12, 10**12)
        assert gap._positive(a, b, n) == _sign_by_integers(a, b, n), (a, b, n)


def test_power_kernel_matches_binomial_sums():
    rng = random.Random(26)
    for _ in range(300):
        c, d, n, e = rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(0, 100), rng.randint(0, 12)
        even = sum(math.comb(e, j) * c ** (e - j) * d**j * n ** (j // 2) for j in range(0, e + 1, 2))
        odd = sum(math.comb(e, j) * c ** (e - j) * d**j * n ** (j // 2) for j in range(1, e + 1, 2))
        assert gap._power(c, d, n, e) == (even, odd), (c, d, n, e)


def test_power_kernel_matches_repeated_products():
    # square-and-multiply against the e-fold product, with d < 0 and n both small and above 2^120
    for c, d, n in ((3, -2, 5), (-7, -5, 2), (2**64 + 1, -3, 2**121 + 7), (-5, -(2**70), 2**130 + 1)):
        product = (1, 0)
        for e in range(13):
            assert gap._power(c, d, n, e) == product, (c, d, n, e)
            product = (product[0] * c + product[1] * d * n, product[0] * d + product[1] * c)


# --- omega_lower_bound --------------------------------------------------------

def test_omega_lower_bound_on_known_quadruple():
    quad = make_tuple(D1, quad_2_4_12_420())
    ok, margin = omega_lower_bound(quad)
    assert ok
    assert margin == 64 * 420**2 - 4 * 16


def test_omega_preconditions():
    quad = make_tuple(D1, [D1.elem(n) for n in (1, 3, 8, 120)])
    with pytest.raises(PreconditionViolated):
        omega_lower_bound(quad)  # |a| = 1 < 2
    triple = make_tuple(D1, [D1.elem(n) for n in (2, 4, 12)])
    with pytest.raises(PreconditionViolated):
        omega_lower_bound(triple)


# --- chain_certificate ---------------------------------------------------------

def test_chain_reproduces_paper_milestones():
    cert = chain_certificate(43)
    lb = cert.lower_bounds
    assert lb[4] == 4 and lb[5] == 256 and lb[7] == 256
    assert lb[10] == 1024
    assert lb[25] == 2**134          # |a25| >= 16^64 / 8^63 = 2^67
    assert isqrt(lb[25]) == 2**67
    assert isqrt(lb[25]) > 1_784_000_000
    assert lb[43] == 2**8198
    assert cert.upper_bound_rhs == (4728**20) ** 2 * (2**134) ** 50
    assert cert.contradiction_at == 43
    assert cert.applicability["lb(a25)^14 > 8^126 * K^40"]
    assert all(cert.applicability.values())


def test_chain_closed_form():
    cert = chain_certificate(43)
    lb = cert.lower_bounds
    # lb(|a_{7+3k}|) >= |a7|^(2^k) / 8^(2^k - 1), squared on abs_sq
    for k in range(0, 7):
        idx = 7 + 3 * k
        e = 2**k
        assert lb[idx] == 256**e // 64 ** (e - 1)
    # monotone in the index
    assert all(lb[i] <= lb[i + 1] for i in range(4, 43))


def test_chain_no_contradiction_below_43():
    cert = chain_certificate(42)
    assert cert.contradiction_at is None
    assert not cert.contradiction_found
    assert 43 not in cert.lower_bounds
    cert5 = chain_certificate(5)
    assert cert5.lower_bounds == {4: 4, 5: 256}
    with pytest.raises(ValueError):
        chain_certificate(4)


def test_chain_above_43_still_contradicts():
    assert chain_certificate(50).contradiction_at == 43


def test_chain_lb_a4_premise_holds_on_the_bound_16_quadruple_sweep():
    # the chain starts from abs_sq(a4) >= 4: the sweep's 18 quadruples, every
    # one in 624 rings at |z| <= 16, have a largest element of abs_sq 9 or more
    report = json.loads((Path(__file__).parent / "data" / "sweep_b16_m4.json").read_text())
    quads = report["payload"]["tuples"]
    assert len(quads) == 18
    largest = [
        max(RingSpec(int(t["d"])).elem(*map(int, z.split(","))).abs_sq() for z in t["elems"].split(";"))
        for t in quads
    ]
    assert min(largest) == 9
    assert min(largest) >= chain_certificate(43).lower_bounds[4]


def test_chain_threshold_alone_decides_the_contradiction(monkeypatch, capsys):
    # lb(a25)^14 = 2^1876: K = 2^37 gives 8^126 * K^40 = 2^1858 below it,
    # K = 2^38 gives 2^1898 above it; every other entry is free of K.  K^40
    # is a module constant, so it is set with K
    def set_k(k):
        monkeypatch.setattr(gap, "K_CONSTANT", k)
        monkeypatch.setattr(gap, "K_POW_40", k**40)

    set_k(2**37)
    assert chain_certificate(43).contradiction_at == 43
    set_k(2**38)
    cert = chain_certificate(43)
    assert cert.contradiction_at is None
    assert cert.applicability["lb(a25)^14 > 8^126 * K^40"] is False
    assert list(cert.applicability)[-1] == "lb(a25)^14 > 8^126 * K^40"
    assert cert.upper_bound_rhs == 2**1520 * 2**6700
    assert main(["chain", "--m", "43"]) == 1
    assert capsys.readouterr().out.startswith("chain: inapplicable")


GAP_DIGEST = Path(__file__).parent / "data" / "gap_principle_digest.json"


def _gap_digest_inputs():
    """Ten admissible triples in each of d = -1, -2, -3, -7, -11, fixed by seed."""
    rng = random.Random(2018)
    return [_admissible_triple(rng, RingSpec(d)) for d in (-1, -2, -3, -7, -11) for _ in range(10)]


def _certified_lines(triples):
    """One line per input: its coordinates, then every certified output of the
    interval layer; a change in any endpoint or check changes the line."""
    lines = []
    for a, b, c in triples:
        res = gap_principle(a, b, c)
        rep = jz_quantities(b, a, a * b * c)
        lines.append(repr((
            a.spec.d, [(e.u, e.v) for e in (a, b, c)],
            res.lambda_enclosure, res.bound_abs_sq, sorted(res.checks.items()),
            rep.L.enclosure(), rep.c_const.enclosure(),
        )))
    return lines


def test_gap_principle_digest_is_pinned():
    lines = _certified_lines(_gap_digest_inputs())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert {"inputs": len(lines), "sha256": digest} == json.loads(GAP_DIGEST.read_text())


def test_gap_principle_makes_no_interval_comparison(monkeypatch):
    def refuse(self, other):
        raise AssertionError("gap_principle called ExactReal.compare")

    monkeypatch.setattr(ExactReal, "compare", refuse)
    lines = _certified_lines(_gap_digest_inputs())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert {"inputs": 50, "sha256": digest} == json.loads(GAP_DIGEST.read_text())


def test_gap_principle_from_two_threads_matches_serial():
    triples = _gap_digest_inputs()
    halves = [triples[0::2], triples[1::2]]
    serial = [_certified_lines(h) for h in halves]
    threaded = [None, None]

    def run(i):
        threaded[i] = _certified_lines(halves[i])

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert threaded == serial

import cmath
import hashlib
import json
import math
import random
import threading
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from diophiq import gap
from diophiq.errors import DegenerateInput, PreconditionViolated, TheoremInapplicable
from diophiq.exactreal import const
from diophiq.gap import (
    ApproxReport,
    K_CONSTANT,
    approx_check,
    chain_certificate,
    gap_hypotheses,
    gap_principle,
    jz_quantities,
    omega_lower_bound,
)
from diophiq.pell import build_system, solution_from_extension
from diophiq.ring import RingSpec
from diophiq.tuples import make_tuple

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
        rep = approx_check(a, b, c, sol)
        assert isinstance(rep, ApproxReport)
        assert rep.slack_theta1 > 0, d
        assert rep.slack_cap1 > 0, d
        assert rep.slack_theta2 > 0, d
        assert rep.slack_cap2 > 0, d
        assert abs(float(rep.slack_theta1) - _float_slack_theta1(sys, sol)) < 1e-9, d


def test_approx_check_false_margin_names_inequality(monkeypatch):
    # a distance far above bound_i must be reported, not escalated
    monkeypatch.setattr(gap, "_branch_distance", lambda *args: const(1))
    d, triple, ext = APPROX_CASES[1]
    spec = RingSpec(d)
    a, b, c = (spec.elem(u, v) for u, v in triple)
    sol = solution_from_extension(build_system(a, b, c), spec.elem(*ext))
    with pytest.raises(TheoremInapplicable) as ei:
        approx_check(a, b, c, sol)
    assert "|theta_1 - q_1| <= bound_1" in str(ei.value)
    assert "|theta_2 - q_2| <= bound_2" in str(ei.value)
    assert "bound_1 < cap" not in str(ei.value)


def test_approx_check_gap_precondition():
    # {1, 3, 8}: |c| = 8 <= 4|b| = 12 and |a| = 1
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(8))
    sol = solution_from_extension(sys, D1.elem(120))
    with pytest.raises(PreconditionViolated) as ei:
        approx_check(D1.elem(1), D1.elem(3), D1.elem(8), sol)
    assert "|c| > 4|b|" in ei.value.failures
    assert "|a| >= 2" in ei.value.failures


def test_approx_check_unit_a_rejected():
    # |a| = 1 alone trips the hypothesis even when the gap condition holds
    a, b, c = D1.elem(1), D1.elem(3), D1.elem(120)
    sys = build_system(a, b, c)
    sol = solution_from_extension(sys, D1.elem(8))
    with pytest.raises(PreconditionViolated) as ei:
        approx_check(a, b, c, sol)
    assert "|a| >= 2" in ei.value.failures


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
    assert rep.lam > 1


def test_jz_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        jz_quantities(D1.elem(3), D1.elem(3), D1.elem(100))
    with pytest.raises(DegenerateInput):
        jz_quantities(D1.elem(3), D1.elem(1), D1.elem(3))  # |T| = M
    with pytest.raises(DegenerateInput):
        jz_quantities(D1.elem(3), D1.elem(1), D1.elem(2))  # |T| < M


def test_jz_specialization_p_bound():
    # a1=b, a2=a, T=abc with |ac| >= 9 forces p <= sqrt(21/16); here
    # a=3, b=7, c=9 gives |ac| = 27 and p = sqrt(57/52), strictly below
    from diophiq.exactreal import sqrt_of

    a, b, c = D1.elem(3), D1.elem(7), D1.elem(9)
    rep = jz_quantities(b, a, a * b * c)
    assert rep.p < sqrt_of(Fraction(21, 16))


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
        assert rep.L > 1
        count += 1


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
        lines.append(repr((
            a.spec.d, [(e.u, e.v) for e in (a, b, c)],
            res.lambda_enclosure, res.bound_abs_sq, sorted(res.checks.items()),
            res.report.L.enclosure(), res.report.c_const.enclosure(),
        )))
    return lines


def test_gap_principle_digest_is_pinned():
    lines = _certified_lines(_gap_digest_inputs())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert {"inputs": len(lines), "sha256": digest} == json.loads(GAP_DIGEST.read_text())


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

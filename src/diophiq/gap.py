"""Certified evaluation of every inequality behind the size bound.

Four layers, all exact or certified:

* approx_check       -- the two simultaneous-approximation inequalities a
                        solution of a built PellSystem must satisfy, from
                        exact ring quotients, certified by interval code;
* jz_quantities      -- the constant set (L, P, l, p, lambda, c) of the
                        simultaneous-approximation theorem, each one
                        straight-line function of the working precision;
* gap_principle      -- hypothesis and algebraic checks on exact integers,
                        returning plain data: the exact big-integer bound
                        K^40 * abs_sq(c)^50 with K = 4728, the checks and the
                        rational enclosure of lambda;
* chain_certificate  -- the cascading lower-bound chain on indices
                        4, 5, 7, 10, ..., 43, derived in one pass on exact
                        integers; the one threshold test
                        lb(a25)^14 > 8^126 * K^40 decides the contradiction.

Upper bounds and hypothesis checks are carried on squared absolute values
(integers) so every chain step compares exact big integers.  Each check of
the gap principle (L > 1, 1 < lambda < 1.9, the auxiliary inequality) reads
A + B*sqrt(n) > 0 on them and one exact sign test decides it; intervals
serve only the reported enclosure of lambda and approx_check's margins.

K_CONSTANT lives in the package root, so reports can state it without
loading this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import K_CONSTANT
from .errors import PreconditionViolated, TheoremInapplicable
from .exactreal import ExactReal, add, div, exp, fmax, fmin, log, mul, power, sqrt, sub
from .pell import PellSolution, PellSystem, first_equation_holds, second_equation_holds
from .ring import RingElem


# ---------------------------------------------------------------------------
# Lemma-2 style simultaneous approximation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxReport:
    """Certified margins for both approximation inequalities."""

    # lower bounds on slack: bound minus attained value, per inequality
    slack_theta1: Fraction
    slack_cap1: Fraction
    slack_theta2: Fraction
    slack_cap2: Fraction


def approx_check(sys: PellSystem, sol: PellSolution) -> ApproxReport:
    """Certify both approximation inequalities for a solution of the system;
    the hypotheses |c| > 4|b| and |a| >= 2 read its sorted triple (a, b, c).

    theta_1 = +-(s/a)sqrt(a/c) approximated by sx/(az), theta_2 analogue with
    t and y; each attained distance must fall below
    bound_1 = |s||c-a|/(|a|sqrt|ac|)/|z|^2 (resp. the t-side analogue), which
    in turn stays below cap = (21/16)(|c|/|a|)/|z|^2.  The sign of theta is
    not chosen a priori: the minimum of the two branch distances is taken.
    Raises TheoremInapplicable naming every margin certified false.
    """
    a, b, c = sys.a, sys.b, sys.c
    failures = []
    if c.abs_sq() <= 16 * b.abs_sq():
        failures.append("|c| > 4|b|")
    if a.abs_sq() < 4:
        failures.append("|a| >= 2")
    if sol.z.is_zero():
        failures.append("z != 0")
    elif not (first_equation_holds(sys, sol.z, sol.x) and second_equation_holds(sys, sol.z, sol.y)):
        failures.append("(x, y, z) solves both equations")
    if failures:
        raise PreconditionViolated(failures)

    na, nc, nz = a.abs_sq(), c.abs_sq(), sol.z.abs_sq()

    def bound_of(nw: int, nce: int, ne: int) -> ExactReal:  # |w||c-e|/(|e|sqrt|ec|)/|z|^2
        return ExactReal(lambda prec: div(
            mul(sqrt(nw, prec), sqrt(nce, prec), prec),
            mul(mul(sqrt(ne, prec), sqrt(sqrt(ne * nc, prec), prec), prec), nz, prec), prec,
        ))

    def slack(x: ExactReal, y: ExactReal) -> Fraction:  # certified lower end of x - y
        return ExactReal(lambda prec: sub(x.fn(prec), y.fn(prec), prec)).enclosure()[0]

    cap = ExactReal(lambda prec: div(mul(sqrt(nc, prec), 21, prec), mul(mul(sqrt(na, prec), 16, prec), nz, prec), prec))
    checks, slacks = {}, []
    for i, w, e, v in ((1, sys.s, a, sol.x), (2, sys.t, b, sol.y)):
        dist = _branch_distance(w * w, e * c, w * v, e * sol.z)  # theta^2 = w^2/(ec), q = wv/(ez)
        bound = bound_of(w.abs_sq(), (c - e).abs_sq(), e.abs_sq())
        checks[f"|theta_{i} - q_{i}| <= bound_{i}"] = dist.compare(bound) <= 0
        checks[f"bound_{i} < cap"] = bound.compare(cap) < 0
        slacks += [slack(bound, dist), slack(cap, bound)]
    failing = [name for name, ok in checks.items() if not ok]
    if failing:
        raise TheoremInapplicable(f"approximation margins certified false: {failing}")
    return ApproxReport(*slacks)


def _quotient(num: RingElem, den: RingElem) -> tuple[Fraction, Fraction]:
    """(x, y) with num/den = x + y*sqrt|D|*i, both exact rationals."""
    q = num * den.conj()
    m2 = 2 * den.abs_sq()
    return Fraction(2 * q.u - num.spec.t * q.v, m2), Fraction(q.v, m2)


def _branch_distance(sq_num: RingElem, sq_den: RingElem, q_num: RingElem, q_den: RingElem) -> ExactReal:
    """min over signs of |(+-theta) - q| for theta^2 = sq_num/sq_den, q = q_num/q_den.

    theta = gamma + i*delta is the principal root: gamma = sqrt((|w|+Re w)/2),
    delta = sign(Im w)*sqrt((|w|-Re w)/2) for w = theta^2, where |w| is the
    square root of the exact rational abs_sq(sq_num)/abs_sq(sq_den).  The
    sign of delta is applied to q's imaginary part, which leaves
    both distances unchanged.
    """
    x, y = _quotient(sq_num, sq_den)
    w_sq = Fraction(sq_num.abs_sq(), sq_den.abs_sq())
    qx, qy = _quotient(q_num, q_den)
    if y < 0:
        qy = -qy

    def distance(prec: int):
        r = sqrt(w_sq, prec)
        gamma = sqrt(div(add(r, x, prec), 2, prec), prec)
        delta = sqrt(div(sub(r, x, prec), 2, prec), prec)
        qi = mul(sqrt(sq_num.spec.abs_disc, prec), qy, prec)
        plus = add(power(sub(gamma, qx, prec), 2, prec), power(sub(delta, qi, prec), 2, prec), prec)
        minus = add(power(add(gamma, qx, prec), 2, prec), power(add(delta, qi, prec), 2, prec), prec)
        return fmin(sqrt(plus, prec), sqrt(minus, prec), prec)

    return ExactReal(distance)


# ---------------------------------------------------------------------------
# the constant set of the simultaneous-approximation theorem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Certified record of the theorem quantities for one input.

    Each quantity is an ExactReal defined by one straight-line function of
    the precision, evaluated only when a comparison or an enclosure asks.
    """

    M_sq: int
    L: ExactReal
    P: ExactReal
    lam: ExactReal
    l: ExactReal
    p: ExactReal
    c_const: ExactReal


def _L(k: int, min_sq: int, abs_t, abs_m, prec: int):
    return mul(Fraction(27, k), power(sub(abs_t, abs_m, prec), 2, prec), prec)


def _P(k: int, min_sq: int, abs_t, abs_m, prec: int):
    top = mul(k, add(mul(abs_t, 2, prec), mul(abs_m, 3, prec), prec), prec)
    return div(top, power(sqrt(min_sq, prec), 3, prec), prec)


def _lam(k: int, min_sq: int, abs_t, abs_m, prec: int):
    big_p, big_l = _P(k, min_sq, abs_t, abs_m, prec), _L(k, min_sq, abs_t, abs_m, prec)
    return add(div(log(big_p, prec), log(big_l, prec), prec), 1, prec)


def _certified(quantity, k: int, min_sq: int, t2: int, m_sq: int) -> ExactReal:
    """quantity(k, min_sq, |T|, M, prec) at |T| = sqrt(t2), M = sqrt(m_sq), for k = 16 n1 n2 n12 and
    min_sq = min(n1, n2, n12) (n12 = abs_sq(a1 - a2)); one square root of each per evaluation."""
    return ExactReal(lambda prec: quantity(k, min_sq, sqrt(t2, prec), sqrt(m_sq, prec), prec))


def _refuse(t2: int, m_sq: int, k: int) -> None:
    """Raise unless |T| > M and L > 1, decided exactly on t2 = abs_sq(T) and m_sq = M^2."""
    if t2 <= m_sq:
        raise PreconditionViolated(["|T| > max(|a1|, |a2|)"])
    if not _positive(27 * (t2 + m_sq) - k, -54, t2 * m_sq):  # 27(t + m) - k > 54 sqrt(tm)
        raise TheoremInapplicable("L <= 1, the theorem gives nothing")


def jz_quantities(a1: RingElem, a2: RingElem, T: RingElem) -> GapReport:
    """Evaluate L, P, l, p, lambda, c for theta_i = sqrt(1 + a_i/T).

    Exact inputs are the squared absolute values; every derived quantity is
    exact where the square roots resolve to rationals and a certified
    interval otherwise.  Raises PreconditionViolated unless a1 != a2, both
    nonzero and |T| > M; raises TheoremInapplicable when L <= 1.
    """
    if a1 == a2:
        raise PreconditionViolated(["a1 != a2"])
    if a1.is_zero() or a2.is_zero():
        raise PreconditionViolated(["a1 and a2 nonzero"])
    n1, n2, n12, t2 = a1.abs_sq(), a2.abs_sq(), (a1 - a2).abs_sq(), T.abs_sq()
    m_sq, min_sq, k = max(n1, n2), min(n1, n2, n12), 16 * n1 * n2 * n12
    _refuse(t2, m_sq, k)

    def l(k, min_sq, abs_t, abs_m, prec: int):
        return div(mul(Fraction(27, 64), abs_t, prec), sub(abs_t, abs_m, prec), prec)

    def p(k, min_sq, abs_t, abs_m, prec: int):
        top = add(mul(abs_t, 2, prec), mul(abs_m, 3, prec), prec)
        return sqrt(div(top, sub(mul(abs_t, 2, prec), mul(abs_m, 2, prec), prec), prec), prec)

    def c(k, min_sq, abs_t, abs_m, prec: int):  # 1/(4 p P max(2l, 1)^(lambda - 1))
        base = fmax(mul(l(k, min_sq, abs_t, abs_m, prec), 2, prec), 1, prec)
        grown = exp(mul(log(base, prec), sub(_lam(k, min_sq, abs_t, abs_m, prec), 1, prec), prec), prec)
        four_p = mul(4, p(k, min_sq, abs_t, abs_m, prec), prec)
        return div(1, mul(mul(four_p, _P(k, min_sq, abs_t, abs_m, prec), prec), grown, prec), prec)

    return GapReport(m_sq, *(_certified(f, k, min_sq, t2, m_sq) for f in (_L, _P, _lam, l, p, c)))


def _positive(a: int, b: int, n: int) -> bool:
    """a + b*sqrt(n) > 0, exactly, for integers a, b and n >= 0."""
    if b < 0:
        return a > 0 and a * a > b * b * n
    return a > 0 or b * b * n > a * a


def _power(c: int, d: int, n: int, e: int) -> tuple[int, int]:
    """(A, B) with (c + d*sqrt(n))^e = A + B*sqrt(n), by square-and-multiply."""
    a, b = 1, 0
    while e:
        if e & 1:
            a, b = a * c + b * d * n, a * d + b * c
        e >>= 1
        if e:
            c, d = c * c + d * d * n, 2 * c * d
    return a, b


# ---------------------------------------------------------------------------
# the gap principle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapPrincipleResult:
    """Exact bound on abs_sq(d), the checks behind it and lambda's enclosure.

    Plain data only: the certified quantities themselves come from
    jz_quantities(b, a, a * b * c).
    """

    bound_abs_sq: int
    k_constant: int
    lambda_enclosure: tuple[Fraction, Fraction]
    checks: dict[str, bool]


def gap_hypotheses(a: RingElem, b: RingElem, c: RingElem) -> list[str]:
    """Names of the failing hypotheses (empty when all four hold)."""
    na, nb, nc = a.abs_sq(), b.abs_sq(), c.abs_sq()
    failures = []
    if na * nc < 81:
        failures.append("|ac| >= 9")
    if 4 * nb < 9 * na:
        failures.append("|b| >= 3/2 |a|")
    if nb <= 25:
        failures.append("|b| > 5")
    if nc <= nb**15:
        failures.append("|c| > |b|^15")
    return failures


def _exact_checks(na: int, nb: int, nbma: int, nc: int) -> dict[str, bool]:
    """The lambda and auxiliary checks from na, nb, nc, nbma = abs_sq(b - a), given L > 1.

    With k = 16 na nb nbma, t = na nb nc, m = max(na, nb), mu = min(na, nb, nbma):
    * lambda > 1 iff P > 1 iff k^2 (4t + 9m + 12 sqrt(tm)) > mu^3;
    * lambda < 1.9 iff P^10 < L^9 iff
      k^19 (4t + 9m + 12 sqrt(tm))^5 < 27^9 mu^15 (t + m - 2 sqrt(tm))^9;
    * 210|b|^3 |b-a|^3.8 |a|^0.8 < (|ac|-1)^0.8 iff, raised to the 10th power,
      210^10 nb^15 nbma^19 na^4 < (na nc + 1 - 2 sqrt(na nc))^4.
    """
    k, t, m, mu = 16 * na * nb * nbma, na * nb * nc, max(na, nb), min(na, nb, nbma)
    n = t * m
    gap9 = _power(t + m, -2, n, 9)
    sum5 = _power(4 * t + 9 * m, 12, n, 5)
    lhs, rhs = 27**9 * mu**15, k**19
    aux = _power(na * nc + 1, -2, na * nc, 4)
    return {
        "lambda > 1": _positive(k * k * (4 * t + 9 * m) - mu**3, 12 * k * k, n),
        "lambda < 1.9": _positive(lhs * gap9[0] - rhs * sum5[0], lhs * gap9[1] - rhs * sum5[1], n),
        "210|b|^3|b-a|^3.8|a|^0.8 < (|ac|-1)^0.8": _positive(
            aux[0] - 210**10 * nb**15 * nbma**19 * na**4, aux[1], na * nc
        ),
    }


def _gap_bound(n: int) -> int:
    """K^40 * n^50: the gap principle's bound on abs_sq(d) for abs_sq(c) = n."""
    return K_CONSTANT**40 * n**50


def gap_principle(a: RingElem, b: RingElem, c: RingElem) -> GapPrincipleResult:
    """Exact bound abs_sq(d) < K^40 * abs_sq(c)^50 with K = 4728.

    On a1 = b, a2 = a, T = abc (abs_sq(T) = na*nb*nc: the norm is multiplicative)
    every check is exact (|T| > M and L > 1 in _refuse, the rest in _exact_checks);
    of jz_quantities(b, a, T) only lambda is evaluated, for its enclosure.
    """
    failures = gap_hypotheses(a, b, c)
    if failures:
        raise PreconditionViolated(failures)
    na, nb, nc, nbma = a.abs_sq(), b.abs_sq(), c.abs_sq(), (b - a).abs_sq()
    t2, m_sq, k = na * nb * nc, max(nb, na), 16 * nb * na * nbma
    _refuse(t2, m_sq, k)
    checks = {"L > 1": True, **_exact_checks(na, nb, nbma, nc)}
    if not all(checks.values()):
        raise TheoremInapplicable(f"certification failed: {checks}")
    lam = _certified(_lam, k, min(nb, na, nbma), t2, m_sq)
    return GapPrincipleResult(
        bound_abs_sq=_gap_bound(nc),
        k_constant=K_CONSTANT,
        lambda_enclosure=lam.enclosure(),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# the contradiction chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainCertificate:
    """Exact big-integer record of the index-chain contradiction."""

    m: int
    k_constant: int
    lower_bounds: dict[int, int]          # index -> exact lb on abs_sq(a_index)
    steps: tuple[str, ...]
    applicability: dict[str, bool]
    upper_bound_rhs: int | None           # K^40 * lb(abs_sq(a25))^50 with K = 4728
    contradiction_at: int | None

    @property
    def contradiction_found(self) -> bool:
        return self.contradiction_at is not None


def chain_certificate(m: int) -> ChainCertificate:
    """Replay the cascading lower-bound chain for an assumed sorted m-tuple.

    From abs_sq(a4) >= 4 and abs_sq(a5) >= 256 one pass derives lb(a_i) =
    lb(a_{i-1}), raised at i = 10, 13, ... to ceil(lb(a_{i-3})^2/64).  For m >= 43
    one exact test decides: six lemma steps give abs_sq(a43) >= x^64/8^126 for
    x = abs_sq(a25) >= lb(a25), the gap principle gives abs_sq(a43) < K^40 * x^50,
    and both hold for no x with x^14 > 8^126 * K^40.
    """
    if m < 5:
        raise ValueError("chain needs at least five elements")
    lb: dict[int, int] = {4: 4, 5: 256}
    steps = [
        "abs_sq(a4) >= 4: no Diophantine quadruple has largest element below 2",
        "abs_sq(a5) >= 256: no Diophantine quintuple with elements of absolute value <= 16",
    ]
    top = min(m, 43)
    for i in range(6, top + 1):
        lb[i] = lb[i - 1]  # sortedness
        if i >= 10 and i % 3 == 1:
            derived = -(-lb[i - 3] ** 2 // 64)  # ceiling division: abs_sq is an integer
            if derived > lb[i]:
                lb[i] = derived
                steps.append(
                    f"abs_sq(a{i}) >= abs_sq(a{i - 3})^2/64 = {derived}"
                    f" (lower-bound lemma on indices {i - 3}..{i})"
                )

    applicability: dict[str, bool] = {}
    upper_rhs = None
    contradiction_at = None
    if top >= 25:
        applicability["|a4*a25| >= 9"] = lb[4] * lb[25] >= 81
        # Omega lemma on {a4, a5, a6, a7}: abs_sq(a7) >= abs_sq(a4)*abs_sq(a5)/64
        applicability["|a7| >= 3/2 |a4|"] = 4 * lb[5] >= 9 * 64
        applicability["|a7| > 5"] = lb[7] > 25
        applicability["|a25| > |a7|^15"] = lb[7] ** 49 > 8**126
        upper_rhs = _gap_bound(lb[25])
        steps.append(f"gap principle on (a4, a7, a25, a_(25+k)): abs_sq(a_(25+k)) < {K_CONSTANT}^40 * abs_sq(a25)^50")
        # paper-threshold consistency: lb(|a25|) = 2^67 far exceeds 1.784e9
        applicability["|a25| > 1.784e9"] = isqrt(lb[25]) > 1_784_000_000
    if m >= 43 and all(applicability.values()):
        threshold = lb[25] ** 14 > 8**126 * K_CONSTANT**40
        applicability["lb(a25)^14 > 8^126 * K^40"] = threshold
        if threshold:
            contradiction_at = 43
            steps.append("lb(a25)^14 > 8^126 * K^40, so abs_sq(a43) exceeds the gap-principle bound: contradiction")
    return ChainCertificate(
        m=m,
        k_constant=K_CONSTANT,
        lower_bounds=lb,
        steps=tuple(steps),
        applicability=applicability,
        upper_bound_rhs=upper_rhs,
        contradiction_at=contradiction_at,
    )

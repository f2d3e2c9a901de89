"""Certified evaluation of every inequality behind the size bound.

Four layers, all exact or certified:

* approx_check       -- the two simultaneous-approximation inequalities a
                        Pell solution must satisfy, checked with complex
                        interval arithmetic around exact field elements;
* jz_quantities      -- the constant set (L, P, l, p, lambda, c) of the
                        simultaneous-approximation theorem, as certified
                        exact-or-interval scalars;
* gap_principle      -- hypothesis checks on exact squared absolute values
                        plus certified lambda < 1.9, returning the exact
                        big-integer bound K^2 * abs_sq(c)^50, K = 4728^20;
* chain_certificate  -- the cascading lower-bound chain on indices
                        4, 5, 7, 10, ..., 43 carried on exact integers,
                        ending in the final contradiction.

Upper bounds and hypothesis checks are carried on squared absolute values
(integers) so every chain step compares exact big integers; only genuinely
irrational comparisons (lambda, fractional powers) go through adaptive
interval arithmetic, and those must certify below the 4096-bit cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from mpmath import iv, mp
from mpmath.libmp import mpf_lt

from .errors import DegenerateInput, PreconditionViolated, TheoremInapplicable, UndecidableComparison
from .exactreal import (
    PREC_CAP,
    PREC_START,
    ExactReal,
    _IV_LOCK,
    _iv_from_fraction,
    _raw_to_fraction,
    const,
    iv_sqrt_nonneg,
)
from .pell import PellSolution, build_system, first_equation_holds, second_equation_holds
from .ring import RingElem
from .tuples import DiophTuple

K_CONSTANT = 4728
"""Gap-principle constant: the statement says 4278 but its proof derives
4728; the larger, proof-consistent value is used everywhere and reported."""


# ---------------------------------------------------------------------------
# exact arithmetic in the field K = Q(sqrt(d)), coordinates over (1, sqrt(d))
# ---------------------------------------------------------------------------

KNum = tuple[Fraction, Fraction]


def _k_coords(z: RingElem) -> KNum:
    """Field coordinates (x, y) with value x + y*sqrt(d)."""
    if z.spec.half_basis:
        return (Fraction(2 * z.u - z.v, 2), Fraction(z.v, 2))
    return (Fraction(z.u), Fraction(z.v))


def _k_mul(a: KNum, b: KNum, d: int) -> KNum:
    return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _k_div(a: KNum, b: KNum, d: int) -> KNum:
    n = b[0] * b[0] - d * b[1] * b[1]
    inv = (b[0] / n, -b[1] / n)
    return _k_mul(a, inv, d)


def _k_abs_sq(a: KNum, d: int) -> Fraction:
    return a[0] * a[0] - d * a[1] * a[1]


# ---------------------------------------------------------------------------
# complex intervals: (re, im) pairs of mpmath iv values
# ---------------------------------------------------------------------------


def _cplx_from_k(a: KNum, d: int):
    return (_iv_from_fraction(a[0]), _iv_from_fraction(a[1]) * iv.sqrt(iv.mpf(-d)))


def _cplx_abs(c):
    return iv_sqrt_nonneg(c[0] ** 2 + c[1] ** 2)


def _cplx_sqrt_of_exact(a: KNum, d: int):
    """Principal square root of the exact field element x + y*sqrt(d).

    Uses gamma = sqrt((|w|+Re w)/2), delta = sign(Im w)*sqrt((|w|-Re w)/2);
    |w|^2 is an exact rational, so every radicand is a monotone image of
    exact data and the enclosure is certified.
    """
    x, y = a
    r_sq = x * x - d * y * y
    abs_w = iv_sqrt_nonneg(_iv_from_fraction(r_sq))
    re_w = _iv_from_fraction(x)
    gamma = iv_sqrt_nonneg((abs_w + re_w) / 2)
    delta = iv_sqrt_nonneg((abs_w - re_w) / 2)
    if y < 0:
        delta = -delta
    return (gamma, delta)


def _iv_min(x, y):
    lo = x._mpi_[0] if mpf_lt(x._mpi_[0], y._mpi_[0]) else y._mpi_[0]
    hi = x._mpi_[1] if mpf_lt(x._mpi_[1], y._mpi_[1]) else y._mpi_[1]
    return iv.mpf([mp.make_mpf(lo), mp.make_mpf(hi)])


def _certified_le(x, y) -> bool:
    """sup x <= inf y on interval endpoints."""
    return not mpf_lt(y._mpi_[0], x._mpi_[1])


def _certified_lt(x, y) -> bool:
    return mpf_lt(x._mpi_[1], y._mpi_[0])


# ---------------------------------------------------------------------------
# Lemma-2 style simultaneous approximation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxReport:
    """Certified margins for both approximation inequalities."""

    prec: int
    # lower bounds on slack: bound minus attained value, per inequality
    slack_theta1: Fraction
    slack_cap1: Fraction
    slack_theta2: Fraction
    slack_cap2: Fraction


def approx_check(a: RingElem, b: RingElem, c: RingElem, sol: PellSolution) -> ApproxReport:
    """Certify both approximation inequalities for a solution of the system.

    theta_1 = +-(s/a)sqrt(a/c) approximated by sx/(az), theta_2 analogue with
    t and y; each attained distance must fall below |s||c-a|/(|a|sqrt|ac|)/|z|^2
    (resp. the t-side analogue), which in turn stays below
    (21/16)(|c|/|a|)/|z|^2.  The sign of theta is not chosen a priori: the
    minimum of the two branch distances is enclosed instead.
    """
    failures = []
    if c.abs_sq() <= 16 * b.abs_sq():
        failures.append("|c| > 4|b|")
    if a.abs_sq() < 4:
        failures.append("|a| >= 2")
    sys = build_system(a, b, c)
    if sol.z.is_zero():
        failures.append("z != 0")
    elif not (first_equation_holds(sys, sol.z, sol.x) and second_equation_holds(sys, sol.z, sol.y)):
        failures.append("(x, y, z) solves both equations")
    if failures:
        raise PreconditionViolated(failures)
    a, b, c = sys.a, sys.b, sys.c

    d = a.spec.d
    ka, kb, kc = _k_coords(a), _k_coords(b), _k_coords(c)
    ks, kt = _k_coords(sys.s), _k_coords(sys.t)
    kx, ky, kz = _k_coords(sol.x), _k_coords(sol.y), _k_coords(sol.z)
    # exact field data
    theta1_sq = _k_div(_k_mul(ks, ks, d), _k_mul(ka, kc, d), d)   # s^2/(ac) = 1 + 1/(ac)
    theta2_sq = _k_div(_k_mul(kt, kt, d), _k_mul(kb, kc, d), d)
    q1 = _k_div(_k_mul(ks, kx, d), _k_mul(ka, kz, d), d)
    q2 = _k_div(_k_mul(kt, ky, d), _k_mul(kb, kz, d), d)

    na, nb, nc = a.abs_sq(), b.abs_sq(), c.abs_sq()
    ns, nt = sys.s.abs_sq(), sys.t.abs_sq()
    ncma, ncmb = (c - a).abs_sq(), (c - b).abs_sq()
    nz = sol.z.abs_sq()

    prec = PREC_START
    with _IV_LOCK:
        while prec <= PREC_CAP:
            old = iv.prec
            try:
                iv.prec = prec
                theta1 = _cplx_sqrt_of_exact(theta1_sq, d)
                theta2 = _cplx_sqrt_of_exact(theta2_sq, d)
                e1 = _branch_distance(theta1, q1, d)
                e2 = _branch_distance(theta2, q2, d)
                bound1 = (
                    iv_sqrt_nonneg(iv.mpf(ns)) * iv_sqrt_nonneg(iv.mpf(ncma))
                    / (iv_sqrt_nonneg(iv.mpf(na)) * iv_sqrt_nonneg(iv_sqrt_nonneg(iv.mpf(na * nc))) * iv.mpf(nz))
                )
                bound2 = (
                    iv_sqrt_nonneg(iv.mpf(nt)) * iv_sqrt_nonneg(iv.mpf(ncmb))
                    / (iv_sqrt_nonneg(iv.mpf(nb)) * iv_sqrt_nonneg(iv_sqrt_nonneg(iv.mpf(nb * nc))) * iv.mpf(nz))
                )
                cap = iv.mpf(21) * iv_sqrt_nonneg(iv.mpf(nc)) / (iv.mpf(16) * iv_sqrt_nonneg(iv.mpf(na)) * iv.mpf(nz))
                if (
                    _certified_le(e1, bound1)
                    and _certified_lt(bound1, cap)
                    and _certified_le(e2, bound2)
                    and _certified_lt(bound2, cap)
                ):
                    return ApproxReport(
                        prec=prec,
                        slack_theta1=_raw_to_fraction((bound1 - e1)._mpi_[0]),
                        slack_cap1=_raw_to_fraction((cap - bound1)._mpi_[0]),
                        slack_theta2=_raw_to_fraction((bound2 - e2)._mpi_[0]),
                        slack_cap2=_raw_to_fraction((cap - bound2)._mpi_[0]),
                    )
            finally:
                iv.prec = old
            prec *= 2
    raise UndecidableComparison(f"approximation margins not certified at {PREC_CAP} bits")


def _branch_distance(theta, q: KNum, d: int):
    """Enclosure of min over signs of |(+-theta) - q|."""
    qc = _cplx_from_k(q, d)
    plus = _cplx_abs((theta[0] - qc[0], theta[1] - qc[1]))
    minus = _cplx_abs((-theta[0] - qc[0], -theta[1] - qc[1]))
    return _iv_min(plus, minus)


# ---------------------------------------------------------------------------
# the constant set of the simultaneous-approximation theorem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Exact/certified record of the theorem quantities for one input."""

    a1: RingElem
    a2: RingElem
    T: RingElem
    M_sq: int
    L: ExactReal
    P: ExactReal
    l: ExactReal
    p: ExactReal
    lam: ExactReal
    c_const: ExactReal

    def enclosures(self, prec: int = PREC_START) -> dict[str, tuple[Fraction, Fraction]]:
        return {
            name: getattr(self, name).enclosure(prec)
            for name in ("L", "P", "l", "p", "lam", "c_const")
        }


def jz_quantities(a1: RingElem, a2: RingElem, T: RingElem) -> GapReport:
    """Evaluate L, P, l, p, lambda, c for theta_i = sqrt(1 + a_i/T).

    Exact inputs are the squared absolute values; every derived quantity is
    exact where the square roots resolve to rationals and a certified
    interval otherwise.  Raises DegenerateInput unless a1 != a2, both
    nonzero and |T| > M; raises TheoremInapplicable when L <= 1.
    """
    if a1 == a2:
        raise DegenerateInput("a1 and a2 must be distinct")
    if a1.is_zero() or a2.is_zero():
        raise DegenerateInput("a1 and a2 must be nonzero")
    n1, n2 = a1.abs_sq(), a2.abs_sq()
    n12 = (a1 - a2).abs_sq()
    t2 = T.abs_sq()
    m_sq = max(n1, n2)
    if t2 <= m_sq:
        raise DegenerateInput("|T| > max(|a1|, |a2|) required")

    abs_t = const(t2).sqrt()
    abs_m = const(m_sq).sqrt()
    min_sq = min(n1, n2, n12)
    min_abs = const(min_sq).sqrt()

    L = const(Fraction(27, 16 * n1 * n2 * n12)) * (abs_t - abs_m) ** 2
    P = const(16 * n1 * n2 * n12) * (2 * abs_t + 3 * abs_m) / min_abs**3
    l = const(Fraction(27, 64)) * abs_t / (abs_t - abs_m)
    p = ((2 * abs_t + 3 * abs_m) / (2 * abs_t - 2 * abs_m)).sqrt()
    if L.compare(1) <= 0:
        raise TheoremInapplicable("L <= 1, the theorem gives nothing")
    lam = 1 + P.log() / L.log()
    c_const = 1 / (const(4) * p * P * (2 * l).fmax(1).pow(lam - 1))
    return GapReport(
        a1=a1, a2=a2, T=T, M_sq=m_sq,
        L=L, P=P, l=l, p=p, lam=lam, c_const=c_const,
    )


# ---------------------------------------------------------------------------
# the gap principle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapPrincipleResult:
    """Exact bound on abs_sq(d) plus the certified internals behind it."""

    bound_abs_sq: int
    k_constant: int
    lambda_enclosure: tuple[Fraction, Fraction]
    report: GapReport
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


def gap_principle(a: RingElem, b: RingElem, c: RingElem) -> GapPrincipleResult:
    """Exact bound abs_sq(d) < K^2 * abs_sq(c)^50 with K = 4728^20.

    Hypotheses are checked exactly on squared absolute values; on top of the
    bound the certification re-derives lambda in (1, 1.9) and the auxiliary
    inequality 210|b|^3 |b-a|^3.8 |a|^0.8 < (|ac|-1)^0.8 by intervals.
    """
    failures = gap_hypotheses(a, b, c)
    if failures:
        raise PreconditionViolated(failures)
    report = jz_quantities(b, a, a * b * c)
    checks = {
        "L > 1": True,  # enforced inside jz_quantities
        "lambda > 1": report.lam > 1,
        "lambda < 1.9": report.lam < Fraction(19, 10),
    }
    na, nb, nc = a.abs_sq(), b.abs_sq(), c.abs_sq()
    nbma = (b - a).abs_sq()
    lhs = (
        210
        * const(nb).sqrt() ** 3
        * const(nbma).sqrt().pow(Fraction(19, 5))
        * const(na).sqrt().pow(Fraction(4, 5))
    )
    rhs = (const(na * nc).sqrt() - 1).pow(Fraction(4, 5))
    checks["210|b|^3|b-a|^3.8|a|^0.8 < (|ac|-1)^0.8"] = lhs < rhs
    if not all(checks.values()):
        raise TheoremInapplicable(f"certification failed: {checks}")
    k20 = K_CONSTANT**20
    return GapPrincipleResult(
        bound_abs_sq=k20 * k20 * nc**50,
        k_constant=K_CONSTANT,
        lambda_enclosure=report.lam.enclosure(),
        report=report,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Omega-style lower bound and the contradiction chain
# ---------------------------------------------------------------------------


def omega_lower_bound(quad: DiophTuple) -> tuple[bool, int]:
    """Exact check 64*abs_sq(d) >= abs_sq(a)*abs_sq(b) for a sorted quadruple.

    Returns (holds, margin) with margin = 64*abs_sq(d) - abs_sq(a)*abs_sq(b);
    a negative margin would be a reportable counterexample to the theory.
    """
    if len(quad.elems) != 4:
        raise PreconditionViolated(["need exactly four elements"])
    if any(z.abs_sq() < 4 for z in quad.elems):
        raise PreconditionViolated(["all elements need |z| >= 2"])
    na, nb, _, nd = (z.abs_sq() for z in quad.elems)
    margin = 64 * nd - na * nb
    return margin >= 0, margin


@dataclass(frozen=True)
class ChainCertificate:
    """Exact big-integer record of the index-chain contradiction."""

    m: int
    k_constant: int
    lower_bounds: dict[int, int]          # index -> exact lb on abs_sq(a_index)
    steps: tuple[str, ...]
    applicability: dict[str, bool]
    upper_bound_rhs: int | None           # K^2 * lb(abs_sq(a25))^50
    contradiction_at: int | None

    @property
    def contradiction_found(self) -> bool:
        return self.contradiction_at is not None


def chain_certificate(m: int) -> ChainCertificate:
    """Replay the cascading lower-bound chain for an assumed sorted m-tuple.

    Starts from abs_sq(a4) >= 4 and abs_sq(a5) >= 256, applies the squared
    recurrence lb(a_{k+3}) = lb(a_k)^2/64 along 7, 10, ..., and checks the
    final exact contradiction lb(a43) > K^2 * lb(a25)^50 when m >= 43.
    All arithmetic is exact big integers.
    """
    if m < 5:
        raise ValueError("chain needs at least five elements")
    lb: dict[int, int] = {4: 4, 5: 256}
    steps = [
        "abs_sq(a4) >= 4: no Diophantine quadruple has largest element below 2",
        "abs_sq(a5) >= 256: no Diophantine quintuple with elements of absolute value <= 16",
    ]
    top = min(m, 43)
    for idx in range(6, top + 1):
        lb[idx] = lb[idx - 1]  # sortedness
    for k in range(7, top - 2, 3):
        sq = lb[k] * lb[k]
        assert sq % 64 == 0
        derived = sq // 64
        if derived > lb[k + 3]:
            for idx in range(k + 3, top + 1):
                if derived > lb[idx]:
                    lb[idx] = derived
            steps.append(
                f"abs_sq(a{k + 3}) >= abs_sq(a{k})^2/64 = {derived}"
                f" (lower-bound lemma on indices {k}..{k + 3})"
            )

    applicability: dict[str, bool] = {}
    upper_rhs = None
    contradiction_at = None
    if top >= 25:
        applicability["|a4*a25| >= 9"] = lb[4] * lb[25] >= 81
        applicability["|a7| >= 3/2 |a4|"] = Fraction(lb[5], 64) >= Fraction(9, 4)
        applicability["|a7| > 5"] = lb[7] > 25
        applicability["|a25| > |a7|^15"] = lb[7] ** 49 > 8**126
        k20 = K_CONSTANT**20
        upper_rhs = k20 * k20 * lb[25] ** 50
        steps.append(f"gap principle on (a4, a7, a25, a_(25+k)): abs_sq(a_(25+k)) < {K_CONSTANT}^40 * abs_sq(a25)^50")
        # paper-threshold consistency: lb(|a25|) = 2^67 far exceeds 1.784e9
        applicability["|a25| > 1.784e9"] = isqrt(lb[25]) > 1_784_000_000
    if m >= 43 and all(applicability.values()):
        if lb[43] > upper_rhs:
            contradiction_at = 43
            steps.append(
                "abs_sq(a43) lower bound exceeds the gap-principle upper bound: contradiction"
            )
        # equivalent threshold form, also exact
        applicability["lb(a25)^14 > 8^126 * K^40"] = lb[25] ** 14 > 8**126 * K_CONSTANT**40
    return ChainCertificate(
        m=m,
        k_constant=K_CONSTANT,
        lower_bounds=lb,
        steps=tuple(steps),
        applicability=applicability,
        upper_bound_rhs=upper_rhs,
        contradiction_at=contradiction_at,
    )

"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
comparison is exact (big integers / rationals) or interval-certified below
the 4096-bit cap, with no floating-point tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from diophiq.cli import main
from diophiq.gap import (
    chain_certificate, gap_hypotheses, gap_principle, jz_quantities,
)
from diophiq.pell import build_system, compose_step, first_equation_holds
from diophiq.ring import RingSpec, sqrt_in_ring
from diophiq.search import SearchConfig, find_m_tuples, quintuple_sweep
from diophiq.tuples import forbidden_double_regular, make_tuple, omega_lower_bound
from oracles import (
    census_double_regular_triples,
    enumerate_up_to,
    is_diophantine_tuple,
    naive_find_m_tuples,
    regular_extensions,
)

RING_SET = [RingSpec(d) for d in (-1, -2, -3, -7, -11)]


def _passed(line: str) -> None:
    print(f"PASS  {line}")


def test_criterion_1_quintuple_absence(capsys):
    code = main(["search", "--sweep", "--bound", "16", "--size", "5", "--expect-empty",
                 "--format", "json", "--threads", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"outcome": "ok"' in out
    assert '"rings_checked": "624"' in out  # every squarefree |D| <= 1024
    assert '"rational_pass_tuples": []' in out
    assert out == (Path(__file__).parent / "data" / "sweep_b16_m5.json").read_text()
    with capsys.disabled():
        _passed("criterion 1: no Diophantine quintuple with |z| <= 16 over 624 rings + rational pass")


def test_criterion_2_triple_census():
    # the census is the tests' oracle: roots by norm-form search, each triple through make_tuple
    spec = RingSpec(-3)
    census = census_double_regular_triples(spec, 4, 6)
    triples = [make_tuple(spec, [a, b, c]) for a, b, exts in census for c in exts]
    got = {tuple(z.coords() for z in t.elems) for t in triples}
    assert got == {
        ((-2, 0), (2, 0), (-2, -4)),   # {-2, 2, -2*sqrt(-3)}
        ((-2, 0), (2, 0), (2, 4)),     # {-2, 2, +2*sqrt(-3)}
    }
    assert len(got) == 2
    # and the union of the two branches never forms a quadruple (13 is not a square)
    assert not any(is_diophantine_tuple(spec, [a, b, *exts]) for a, b, exts in census)
    _passed("criterion 2: census over 4 <= abs_sq <= 6 in d=-3 yields exactly the two triples")


def test_criterion_3_chain_reproduction(capsys):
    cert = chain_certificate(43)
    assert cert.lower_bounds[25] == 2**134
    assert isqrt(cert.lower_bounds[25]) == 2**67          # |a25| >= 16^64/8^63
    assert 2**67 > 1_784_000_000                           # paper threshold
    assert cert.k_constant == 4728
    assert cert.upper_bound_rhs == (4728**20) ** 2 * (2**134) ** 50
    assert cert.lower_bounds[43] > cert.upper_bound_rhs    # exact contradiction
    assert cert.contradiction_at == 43
    assert chain_certificate(42).contradiction_at is None
    # same through the CLI exit codes
    assert main(["chain", "--m", "43", "--format", "json"]) == 0
    assert main(["chain", "--m", "42", "--format", "json"]) == 1
    capsys.readouterr()
    with capsys.disabled():
        _passed("criterion 3: chain certificate reproduces 2^67 bound and contradicts at m=43 only")


def _admissible_input(rng: random.Random, spec: RingSpec):
    while True:
        a = spec.elem(rng.randint(1, 5), rng.randint(-2, 2))
        if a.is_zero():
            continue
        b = spec.elem(rng.randint(6, 14), rng.randint(-4, 4))
        na, nb = a.abs_sq(), b.abs_sq()
        if nb <= 25 or 4 * nb < 9 * na:
            continue
        target = nb**15
        u = isqrt(target) + rng.randint(1, 10**6)
        c = spec.elem(u, rng.randint(0, 1000))
        if c.abs_sq() <= target or na * c.abs_sq() < 81:
            continue
        if gap_hypotheses(a, b, c):
            continue
        return a, b, c


def test_criterion_4_gap_principle_internals():
    rng = random.Random(0x6A7)
    for _ in range(100):
        spec = rng.choice(RING_SET)
        a, b, c = _admissible_input(rng, spec)
        res = gap_principle(a, b, c)   # raises if any certification fails
        rep = jz_quantities(b, a, a * b * c)
        assert rep.p.enclosure()[1] ** 2 <= Fraction(21, 16)   # |ac| >= 9 branch
        assert rep.l.compare(Fraction(1, 2)) < 0        # |ac| > 32/5 branch
        assert rep.L.compare(1) > 0
        lo, hi = res.lambda_enclosure                   # |c| > |b|^15 branch
        assert Fraction(1) < lo <= hi < Fraction(19, 10)
        assert res.bound_abs_sq == (4728**20) ** 2 * c.abs_sq() ** 50
    _passed("criterion 4: p <= sqrt(21/16), l < 1/2, L > 1, lambda in (1, 1.9) on 100 admissible inputs")


def test_criterion_5_omega_sweep():
    rep = quintuple_sweep(b_sq=256, size=4, workers=4)
    checked = 0
    for t in rep.tuples:
        assert make_tuple(t.spec, list(t.elems))  # re-verifies
        if min(z.abs_sq() for z in t.elems) >= 4:
            ok, margin = omega_lower_bound(t)
            assert ok and margin >= 0
            assert not forbidden_double_regular(t)
            checked += 1
    # non-vacuous spot check on a known admissible quadruple
    d1 = RingSpec(-1)
    quad = make_tuple(d1, [d1.elem(n) for n in (2, 4, 12, 420)])
    ok, margin = omega_lower_bound(quad)
    assert ok and margin == 64 * 420**2 - 64
    assert not forbidden_double_regular(quad)
    _passed(
        f"criterion 5: zero Omega/double-regular violations over {len(rep.tuples)} quadruples "
        f"at bound 16 ({checked} with min abs_sq >= 4)"
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(0xD10F)
    for i in range(20):
        spec = rng.choice(RING_SET)
        cfg = SearchConfig(
            spec,
            max_abs_sq=rng.randint(2, 6),
            target_size=rng.randint(2, 5),
        )
        fast = find_m_tuples(cfg)
        slow = naive_find_m_tuples(cfg)
        assert tuple(t.elems for t in fast.tuples) == tuple(t.elems for t in slow), cfg
    _passed("criterion 6: clique search equals the nested-loop oracle on 20 random configs")


def test_criterion_7_algebra_property_suite():
    rng = random.Random(0xA15EB4)
    # norm multiplicativity: 10^4 random pairs per ring
    for spec in RING_SET:
        for _ in range(10_000):
            z1 = spec.elem(rng.randint(-99, 99), rng.randint(-99, 99))
            z2 = spec.elem(rng.randint(-99, 99), rng.randint(-99, 99))
            assert (z1 * z2).abs_sq() == z1.abs_sq() * z2.abs_sq()
    # 10^3 random squares round-trip through sqrt_in_ring
    for _ in range(1_000):
        spec = rng.choice(RING_SET)
        z = spec.elem(rng.randint(-60, 60), rng.randint(-60, 60))
        root = sqrt_in_ring(z * z)
        assert root in (z, -z)
        assert root * root == z * z
    # 10^3 Pell composition steps preserve the form value exactly
    systems = []
    for spec in RING_SET:
        elems = list(enumerate_up_to(spec, 20))
        built = 0
        while built < 4:
            a, b = rng.sample(elems, 2)
            for c in regular_extensions(a, b):  # () when {a, b} is not a pair
                systems.append(build_system(a, b, c))
                built += 1
    steps = 0
    one_steps_per_dir = 25
    for sys_ in systems:
        one = sys_.a.spec.one
        for direction in ("forward", "backward"):
            probe = (one, one)  # z=1, x=1 always solves az^2 - cx^2 = a - c
            for _ in range(one_steps_per_dir):
                probe = compose_step(sys_, probe, direction)
                assert first_equation_holds(sys_, *probe)
                steps += 1
    assert steps >= 1_000
    _passed("criterion 7: 5x10^4 norm products, 10^3 sqrt round-trips, 10^3 Pell steps, zero failures")

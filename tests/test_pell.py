import collections

import pytest

from diophiq import pell, tuples
from diophiq.errors import DiophError, DuplicateElement, MixedRings, NotDiophantine, PreconditionViolated, ZeroElement
from diophiq.pell import (
    build_system,
    compose_step,
    first_equation_holds,
    solution_from_extension,
)
from diophiq.ring import RingSpec, iter_disk_coords, sqrt_in_ring
from diophiq.tuples import make_tuple, quadruple_extension_candidates

D1 = RingSpec(-1)
D3 = RingSpec(-3)


def test_build_system_classical():
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(8))
    assert (sys.a.u, sys.b.u, sys.c.u) == (1, 3, 8)
    assert sys.s == D1.elem(3)
    assert sys.t == D1.elem(5)


def test_build_system_sorts_and_verifies():
    sys = build_system(D1.elem(8), D1.elem(1), D1.elem(3))
    assert (sys.a.u, sys.b.u, sys.c.u) == (1, 3, 8)
    with pytest.raises(NotDiophantine):
        build_system(D1.elem(1), D1.elem(3), D1.elem(7))


def test_build_system_d3_triple():
    # {-2, 2, 2sqrt(-3)}: s^2 = -4sqrt(-3)+1 = (2-sqrt(-3))^2, canonical s fixed
    sys = build_system(D3.elem(-2), D3.elem(2), D3.elem(2, 4))
    assert sys.s in (D3.elem(1, -2), D3.elem(-1, 2))
    assert sys.s == max(sys.s, -sys.s, key=lambda z: z.canonical_key())
    assert sys.s * sys.s == sys.a * sys.c + D3.one


def test_solution_from_extension():
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(8))
    sol = solution_from_extension(sys, D1.elem(120))
    assert (sol.x.u, sol.y.u, sol.z.u) == (11, 19, 31)
    # az^2 - cx^2 = a - c re-verified: 961 - 8*121 = -7
    assert sys.a * sol.z * sol.z - sys.c * sol.x * sol.x == D1.elem(-7)
    with pytest.raises(NotDiophantine):
        solution_from_extension(sys, D1.elem(7))


def test_compose_step_chain():
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(8))
    z1 = (D1.elem(1), D1.elem(1))
    z2 = compose_step(sys, z1)
    assert z2 == (D1.elem(11), D1.elem(4))
    z3 = compose_step(sys, z2)
    assert z3 == (D1.elem(65), D1.elem(23))
    # backward undoes forward
    assert compose_step(sys, z3, "backward") == z2
    assert compose_step(sys, z2, "backward") == z1
    with pytest.raises(PreconditionViolated):
        compose_step(sys, (D1.elem(3), D1.elem(1)))


def test_compose_preserves_form_value_along_orbit():
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(8))
    cur = (D1.elem(-1), D1.elem(1))
    for _ in range(50):
        cur = compose_step(sys, cur)
        assert first_equation_holds(sys, *cur)


def _six_pair_solution(sys, d):
    """The solution as make_tuple gives it, rooting all six pairs of {a, b, c, d}."""
    quad = make_tuple(sys.a.spec, [sys.a, sys.b, sys.c, d])
    i = quad.elems.index(d)
    return tuple(quad.witnesses[tuple(sorted((i, quad.elems.index(e))))] for e in (sys.a, sys.b, sys.c))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DiophError as exc:
        return type(exc), str(exc), getattr(exc, "pair", None)


def test_solution_from_extension_refusals():
    sys = build_system(D1.elem(1), D1.elem(3), D1.elem(8))
    with pytest.raises(ZeroElement):
        solution_from_extension(sys, D1.zero)
    with pytest.raises(DuplicateElement, match="not pairwise distinct: 3,0 repeated"):
        solution_from_extension(sys, D1.elem(3))
    # the failing pair is indexed in the sorted quadruple: 1*7 + 1 = 8 in
    # (1, 3, 7, 8), 3*15 + 1 = 46 in (1, 3, 8, 15), 1*2 + 1 = 3 in (1, 2, 3, 8)
    for d, pair in ((7, (0, 2)), (15, (1, 3)), (2, (0, 1))):
        with pytest.raises(NotDiophantine) as refused:
            solution_from_extension(sys, D1.elem(d))
        assert refused.value.pair == pair
    with pytest.raises(MixedRings):
        solution_from_extension(sys, D3.elem(120))


@pytest.mark.parametrize(
    "spec, triple",
    [(D1, [(1, 0), (3, 0), (8, 0)]), (D1, [(2, 0), (4, 0), (12, 0)]), (D3, [(-2, 0), (2, 0), (2, 4)])],
)
def test_solution_from_extension_matches_six_pair_roots(spec, triple):
    # every d in a disk and each regular extension: the same solution or the
    # same refusal as rooting all six pairs
    sys = build_system(*(spec.elem(u, v) for u, v in triple))
    regular, _failed = quadruple_extension_candidates(make_tuple(spec, [sys.a, sys.b, sys.c]))
    outcomes = collections.Counter()
    for d in [spec.elem(u, v) for u, v, _n in iter_disk_coords(spec, 900)] + list(regular):
        got = _outcome(lambda: tuple(vars(solution_from_extension(sys, d)).values()))
        assert got == _outcome(_six_pair_solution, sys, d)
        outcomes[got[0] if type(got[0]) is type else "extension"] += 1
    assert outcomes[NotDiophantine] and outcomes[DuplicateElement] == 3 and outcomes["extension"]


def test_solution_from_extension_roots_only_the_new_pairs(monkeypatch):
    sys = build_system(D1.elem(2), D1.elem(4), D1.elem(12))
    calls = []

    def counting(w):
        calls.append(w)
        return sqrt_in_ring(w)

    for module in (pell, tuples):
        monkeypatch.setattr(module, "sqrt_in_ring", counting)
    sol = solution_from_extension(sys, D1.elem(420))
    assert (sol.x.u, sol.y.u, sol.z.u) == (29, 41, 71)
    assert calls == [D1.elem(2 * 420 + 1), D1.elem(4 * 420 + 1), D1.elem(12 * 420 + 1)]

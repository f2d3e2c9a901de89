import pytest

from diophiq.errors import NotDiophantine, PreconditionViolated
from diophiq.pell import (
    build_system,
    compose_step,
    first_equation_holds,
    solution_from_extension,
)
from diophiq.ring import RingSpec

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

"""Reference searches the tests compare the program's fast paths against."""

import itertools

from diophiq.errors import NotDiophantine
from diophiq.ring import enumerate_up_to
from diophiq.tuples import make_tuple


def naive_find_m_tuples(cfg):
    """Every target_size-subset of the annulus through make_tuple, in the
    search's tuple order; shares no code with the pair graph or the clique search."""
    spec = cfg.spec
    elems = [z for z in enumerate_up_to(spec, cfg.max_abs_sq) if z.abs_sq() >= cfg.min_abs_sq]
    found = []
    for combo in itertools.combinations(elems, cfg.target_size):
        try:
            found.append(make_tuple(spec, combo))
        except NotDiophantine:
            continue
    found.sort(key=lambda t: tuple(z.canonical_key() for z in t.elems))
    return tuple(found)

"""Test-only exact oracles for continued-fraction questions.

No code under `src/` calls these; they restate an exact answer by a route
independent of the code under test.
"""

import math

from latdir.contfrac import HALF, PREFIX_CAP, CFNumber, Enclosure, RationalInterval


def rotation_value(cf: CFNumber, q: int, *, max_terms: int = PREFIX_CAP) -> tuple[int, RationalInterval]:
    """Exact sign and enclosure of q.x, the representative of q*x in (-1/2, 1/2).

    The enclosure is refined until the nearest integer to q*x is pinned down
    and the representative's sign is determined; both always happen for an
    irrational x.
    """
    if q < 1:
        raise ValueError("q must be >= 1")

    def decide(iv: RationalInterval):
        lo, hi = q * iv.lo, q * iv.hi
        r = math.floor(lo + HALF)
        if math.floor(hi + HALF) != r:
            return None
        rep = RationalInterval(lo - r, hi - r)
        if rep.lo > 0:
            return (1, rep)
        if rep.hi < 0:
            return (-1, rep)
        return None

    return Enclosure(cf, 8, max_terms).decide(decide)

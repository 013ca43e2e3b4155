"""Exact d = 1 approximate counts (`count_approximates` on a CFNumber) against
a per-q scan, and the guards that make them fail loudly."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdir.contfrac import HALF, CFNumber, ElementsExhausted, Enclosure, RotationScan, biased_number
from latdir.lattice import count_approximates
from latdir.sphere import SignSet

MINUS = SignSet(frozenset({-1}))
SRC = Path(__file__).resolve().parents[1] / "src"


def _scan_extra_p_signs(cf, q, C):
    """The non-nearest p with |qx - p| < C/q, decided on their own enclosure."""
    bound = C / q
    k_max = math.floor(bound + HALF)

    def decide(iv):
        lo, hi = q * iv.lo, q * iv.hi
        r = math.floor(lo + HALF)
        if math.floor(hi + HALF) != r:
            return None
        rep_lo, rep_hi = lo - r, hi - r
        signs = []
        for k in range(1, k_max + 1):
            for err_lo, err_hi, s in ((k - rep_hi, k - rep_lo, -1), (k + rep_lo, k + rep_hi, 1)):
                if err_hi <= bound:
                    signs.append(s)
                elif err_lo < bound:
                    return None
        return signs

    return Enclosure(cf, 8).decide(decide)


def scan_count(cf, T, C, A):
    """Oracle: every q <= T in turn, the nearest p from a `RotationScan`
    record, and the farther p while C/q > 1/2."""
    scan = RotationScan(cf, T)
    wits = []
    for q in range(1, T + 1):
        if scan.in_thinning(q, C):
            wits.append((q, scan.sign(q)))
        if 2 * C > q:
            wits.extend((q, s) for s in _scan_extra_p_signs(cf, q, C))
    in_A = None if A is None else sum(1 for _, s in wits if A.contains_sign(s))
    return {"total": len(wits), "in_A": in_A, "degenerate": 0, "witnesses": wits}


def cycled(elems):
    return CFNumber(lambda n: elems[(n - 1) % len(elems)] + (n // len(elems)) % 3)


element_lists = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=12),
    st.lists(st.integers(1, 50), min_size=1, max_size=12),
    st.lists(st.one_of(st.integers(1, 9), st.integers(10**3, 10**9)), min_size=1, max_size=12))
# C < 1/2 admits convergents only (Legendre); 7/3, 13/4 and 9/10 make 2C a non-integer
constants = st.sampled_from([Fraction(3, 10), Fraction(9, 10), Fraction(1, 2), Fraction(1),
                             Fraction(7, 3), Fraction(5, 2), Fraction(13, 4), Fraction(5)])


def below_next_convergent(cf, T):
    """q_{n+1} - 1 for the n with q_n <= T < q_{n+1}: the last level the walk
    visits then has all of its intermediate fractions q_{n+1} - s q_n in range."""
    n = 0
    while cf.convergent(n).q <= T:
        n += 1
    return cf.convergent(n).q - 1


@settings(max_examples=40, deadline=None)
@given(elems=element_lists, C=constants, T=st.one_of(st.integers(1, 60), st.integers(1_000, 30_000)),
       snap=st.booleans(), with_A=st.booleans())
def test_level_walk_matches_the_scan(elems, C, T, snap, with_A):
    if snap:
        T = min(below_next_convergent(cycled(elems), T), 30_000)
    A = MINUS if with_A else None
    got = count_approximates(cycled(elems), T, C=C, A=A, want_witnesses=True).to_obj()
    assert got == scan_count(cycled(elems), T, C, A)


@pytest.mark.parametrize("C", [Fraction(1), Fraction(5, 2)])
def test_biased_count_matches_the_scan_at_1e5(C):
    got = count_approximates(biased_number(), 10**5, C=C, A=MINUS, want_witnesses=True).to_obj()
    assert got == scan_count(biased_number(), 10**5, C, MINUS)


def test_biased_count_at_1e9_stays_small():
    # the child's own peak RSS, VmHWM: Linux carries ru_maxrss across fork and
    # exec, so that would read the test runner's RSS at the fork
    code = ("from latdir.contfrac import biased_number\n"
            "from latdir.lattice import count_approximates\n"
            "from latdir.sphere import parse_direction_set\n"
            "res = count_approximates(biased_number(), 1e9, A=parse_direction_set('sign:-1', 1))\n"
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
            "print(res.total, res.in_A, hwm.split()[1])\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    total, in_A, rss_kb = map(int, out.stdout.split())
    assert 0 < in_A <= total
    assert rss_kb < 100 * 1024


def test_finite_prefix_raises_before_a_short_count():
    # q_40 of [0; 1, 1, ...] is F_41 = 165,580,141: the walk needs more elements
    ones = CFNumber.from_elements([1] * 40)
    count_approximates(ones, 10**4, C=1)
    with pytest.raises(ElementsExhausted):
        count_approximates(ones, 10**9, C=1)


def test_long_enough_prefix_counts_like_the_rule():
    prefix = CFNumber.from_elements(biased_number().elements(12))
    got = count_approximates(prefix, 10**5, C=Fraction(5, 2), A=MINUS, want_witnesses=True)
    want = count_approximates(biased_number(), 10**5, C=Fraction(5, 2), A=MINUS, want_witnesses=True)
    assert got.to_obj() == want.to_obj()

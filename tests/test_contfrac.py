import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdir import contfrac as cfm
from latdir.contfrac import (CFNumber, ElementsExhausted, Enclosure, PrefixCapExceeded,
                             RationalInterval, RotationScan, biased_elements,
                             biased_number, cf_product, constant_cf)

elements_lists = st.lists(st.integers(min_value=1, max_value=30), min_size=6, max_size=14)


def cf_from_list(elems):
    return CFNumber(lambda n: elems[(n - 1) % len(elems)] + (n // len(elems)) % 3)


# -- convergents -------------------------------------------------------------

def test_convergents_constant_four():
    cs = constant_cf(4).convergents(3)
    assert [(c.p, c.q) for c in cs] == [(0, 1), (1, 4), (4, 17), (17, 72)]


def test_convergent_zero_is_conventional():
    assert (constant_cf(9).convergents(0)[0].p,
            constant_cf(9).convergents(0)[0].q) == (0, 1)


def test_biased_q4():
    b = biased_number()
    assert b.convergent(4).q == 256 * 72 + 17 == 18449


def test_biased_elements_rule():
    assert biased_elements(1) == 4
    assert biased_elements(2) == 4
    assert biased_elements(6) == 46656
    with pytest.raises(ValueError):
        biased_elements(0)


@given(elements_lists)
@settings(deadline=None)
def test_determinant_identity(elems):
    cf = cf_from_list(elems)
    cs = cf.convergents(len(elems) - 1)
    for n in range(1, len(cs)):
        assert cs[n].q * cs[n - 1].p - cs[n].p * cs[n - 1].q == (-1) ** n


@given(elements_lists)
@settings(deadline=None)
def test_recurrence_matches_backward_fold(elems):
    cf = cf_from_list(elems)
    n = len(elems) - 1
    val = Fraction(0)
    for a in reversed(cf.elements(n)):
        val = Fraction(1, a + val)
    c = cf.convergent(n)
    assert val == Fraction(c.p, c.q)


def test_denominators_nondecreasing():
    cf = constant_cf(1)
    qs = [c.q for c in cf.convergents(12)]
    assert all(a <= b for a, b in zip(qs, qs[1:]))


# -- enclosures --------------------------------------------------------------

def test_enclose_width_tenth():
    iv = constant_cf(4).enclose(Fraction(1, 10))
    assert (iv.lo, iv.hi) == (Fraction(4, 17), Fraction(1, 4))
    assert iv.width == Fraction(1, 68)


def test_enclose_trivial_width_one():
    iv = biased_number().enclose(1)
    assert 0 <= iv.lo <= iv.hi <= 1


def test_enclose_tiny_width_forces_big_denominators():
    iv = biased_number().enclose(Fraction(1, 10**9))
    assert iv.lo.denominator * iv.hi.denominator >= 10**9
    assert iv.width <= Fraction(1, 10**9)


@given(elements_lists, st.integers(min_value=1, max_value=6))
@settings(deadline=None)
def test_enclosures_nest(elems, k):
    cf = cf_from_list(elems)
    wide = cf.enclose(Fraction(1, 10**k))
    tight = cf.enclose(Fraction(1, 10 ** (k + 3)))
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_interval_validation():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))


# -- rotations ---------------------------------------------------------------

def test_rotation_value_biased_q4():
    b = biased_number()
    sign, iv = cfm.rotation_value(b, 4)
    assert sign == -1
    assert Fraction(1, 21) < iv.abs().lo and iv.abs().hi < Fraction(1, 17)


def test_rotation_signs_alternate_on_convergents():
    b = biased_number()
    for n in range(1, 9):
        sign, _ = cfm.rotation_value(b, b.convergent(n).q)
        assert sign == (-1) ** n


@given(elements_lists)
@settings(max_examples=40, deadline=None)
def test_fact4_two_sided_bounds(elems):
    cf = cf_from_list(elems)
    for n in range(0, 5):
        _, iv = cfm.convergent_rotation(cf, n)
        lo = Fraction(1, cf.convergent(n).q + cf.convergent(n + 1).q)
        hi = Fraction(1, cf.convergent(n + 1).q)
        assert iv.abs().strictly_inside(lo, hi)


@given(elements_lists)
@settings(max_examples=40, deadline=None)
def test_consecutive_errors_alternate(elems):
    cf = cf_from_list(elems)
    signs = [cfm.convergent_rotation(cf, n)[0] for n in range(0, 6)]
    assert all(a != b for a, b in zip(signs, signs[1:]))
    assert signs[0] == 1  # q_0 x - p_0 = x > 0


def test_error_ratio_bounds_biased():
    b = biased_number()
    for n in (2, 4, 6):
        iv = cfm.error_ratio_bounds(b, n)
        assert iv.strictly_inside(2, 6)
    for n in (1, 3, 5):
        a = (n + 1) ** (n + 1)
        iv = cfm.error_ratio_bounds(b, n)
        assert iv.strictly_inside(Fraction(a, 2), a + 2)


def test_error_ratio_bounds_golden():
    g = constant_cf(1)
    for n in (1, 3, 6):
        iv = cfm.error_ratio_bounds(g, n)
        assert iv.strictly_inside(Fraction(1, 2), 3)


@given(elements_lists, st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_ratio_lemma_general(elems, n):
    cf = cf_from_list(elems)
    a_next = cf.element(n + 1)
    iv = cfm.error_ratio_bounds(cf, n)
    assert iv.strictly_inside(Fraction(a_next, 2), a_next + 2)


# -- exact scans -------------------------------------------------------------

def test_scan_best_approximation_small():
    # convergents beat every smaller denominator, checked by brute force
    for cf in (biased_number(), constant_cf(1), constant_cf(2)):
        q6 = cf.convergent(6).q
        scan = RotationScan(cf, min(q6, 400))
        qs = [cf.convergent(n).q for n in range(0, 7)]
        n = 0
        for q in range(1, min(q6, 400)):
            while n + 1 < len(qs) and qs[n + 1] <= q:
                n += 1
            if q != qs[n]:
                assert not scan.abs_less(q, qs[n])
        n = 0


def test_scan_rejects_non_adjacent_enclosure(monkeypatch):
    # convergents m and m + 3 lie on opposite sides of x, so they enclose it,
    # but their cross difference is a_{m+2} a_{m+3} + 1 = 5, not 1
    cf = constant_cf(2)
    a, b = cf.convergent(8).value, cf.convergent(11).value
    assert (a - float(cf)) * (b - float(cf)) < 0
    monkeypatch.setattr(cf, "enclosure_at", lambda m: RationalInterval(min(a, b), max(a, b)))
    with pytest.raises(ValueError, match="consecutive convergents"):
        RotationScan(cf, 50)


def _oracle_in_thinning(cf, q, c=Fraction(1), m=40):
    """Independent decision of |q.x| * q <= c from one very tight enclosure."""
    import math

    iv = cf.enclosure_at(m)
    lo, hi = q * iv.lo, q * iv.hi
    r = math.floor(lo + Fraction(1, 2))
    assert math.floor(hi + Fraction(1, 2)) == r
    rep = RationalInterval(lo - r, hi - r).abs()
    if rep.hi * q <= c:
        return True
    if rep.lo * q >= c:
        return False
    raise AssertionError("oracle undecided; widen m")


def test_scan_matches_rotation_value_and_oracle():
    b = biased_number()
    scan = RotationScan(b, 200)
    for q in range(1, 201):
        sign, _ = cfm.rotation_value(b, q)
        assert scan.sign(q) == sign
        assert scan.in_thinning(q, 1) == _oracle_in_thinning(b, q)


def test_scan_in_thinning_golden():
    g = constant_cf(1)
    scan = RotationScan(g, 150)
    for q in range(1, 151):
        assert scan.in_thinning(q, 1) == _oracle_in_thinning(g, q)


def test_scan_widens_from_a_coarse_start():
    b = biased_number()
    coarse = RotationScan(b, 200, start_terms=2)
    fine = RotationScan(b, 200)
    for q in range(1, 201):
        assert coarse.sign(q) == fine.sign(q)
        assert coarse.in_thinning(q, 1) == fine.in_thinning(q, 1)


def test_scan_query_widens_past_the_build_depth():
    # golden scan to 50 from depth 2 settles its records at depth 8, where
    # |1.x| = 0.3819... and |35.x| = 0.3688... still overlap; the query alone
    # must widen and rebuild, then agree with a scan started deep enough
    g = constant_cf(1)
    coarse = RotationScan(g, 50, start_terms=2)
    fine = RotationScan(g, 50)
    built = coarse.enclosure.terms
    assert coarse.abs_less(35, 1) is True and fine.abs_less(35, 1) is True
    assert coarse.enclosure.terms > built
    assert coarse.abs_less(1, 35) is False and fine.abs_less(1, 35) is False
    for q in range(1, 51):
        assert coarse.sign(q) == fine.sign(q)
        assert coarse.in_thinning(q, 1) == fine.in_thinning(q, 1)


def test_scan_query_raises_at_the_cap():
    scan = RotationScan(constant_cf(1), 50, start_terms=2, max_terms=8)
    with pytest.raises(PrefixCapExceeded):
        scan.abs_less(1, 35)


def test_enclosure_doubles_to_the_cap():
    b = biased_number()
    enc = Enclosure(b, 8, 20)
    seen = []

    def fn(iv):
        assert iv == b.enclosure_at(enc.terms)
        seen.append(enc.terms)
        return "done" if enc.terms == 20 else None

    assert enc.decide(fn) == "done"
    assert seen == [8, 16, 20]
    with pytest.raises(PrefixCapExceeded):
        enc.widen()
    with pytest.raises(PrefixCapExceeded):
        Enclosure(b, 2, 4).decide(lambda iv: None)


def test_enclosure_widens_from_zero_terms():
    # doubling 0 stays at 0: an undecidable query must still reach the cap
    enc = Enclosure(biased_number(), 0)
    enc.widen()
    assert enc.terms == 1
    with pytest.raises(PrefixCapExceeded):
        Enclosure(constant_cf(1), 0, 4).decide(lambda iv: None)


def _undecided_kinds(enc, q_max):
    """Which of the two undecided cases of `rotation` occur for q <= q_max:
    the nearest integer to q*x (with q.x's sign on the lower end >= 0), and
    the sign alone."""
    L, D, kinds = enc.L, enc.D, set()
    for q in range(1, q_max + 1):
        r = (2 * q * L + D) // (2 * D)
        nlo = q * L - r * D
        if (2 * q * (L + 1) + D) // (2 * D) != r:
            kinds.add("nearest" if nlo >= 0 else "other")
        elif nlo < 0 < nlo + q:
            kinds.add("sign")
    return kinds


@pytest.mark.parametrize("depth", [2, 4, 8, 16])
def test_rotations_step_equals_rotation(depth):
    # the incremental scan yields exactly the per-q records, None included;
    # at depth 2 every number leaves both kinds of q undecided below q_max
    rng = random.Random(15)
    cfs = [biased_number()] + [CFNumber.from_elements([rng.randint(1, 9) for _ in range(256)])
                               for _ in range(4)]
    q_max = 20_000
    for cf in cfs:
        enc = Enclosure(cf, depth)
        assert list(enc.rotations(q_max)) == [enc.rotation(q) for q in range(1, q_max + 1)]
        if depth == 2:
            assert {"nearest", "sign"} <= _undecided_kinds(enc, q_max)


@given(st.lists(st.integers(1, 500), min_size=17, max_size=17), st.integers(2, 16))
@settings(max_examples=40, deadline=None)
def test_rotations_step_equals_rotation_on_random_numbers(elems, depth):
    enc = Enclosure(CFNumber.from_elements(elems), depth)
    q_max = 3_000
    assert list(enc.rotations(q_max)) == [enc.rotation(q) for q in range(1, q_max + 1)]


# -- products and serialization ----------------------------------------------

def test_cf_product_reproduces_biased():
    prod = cf_product(constant_cf(4), CFNumber(lambda n: n**n))
    assert prod.elements(8) == biased_number().elements(8)


def test_cf_product_identity_and_interleave():
    ones = constant_cf(1)
    assert cf_product(ones, ones).elements(6) == [1] * 6
    mix = cf_product(constant_cf(2), constant_cf(3))
    assert mix.elements(6) == [2, 3, 2, 3, 2, 3]


def test_elements_serialize_as_decimal_strings():
    b = biased_number()
    strs = [str(a) for a in b.elements(8)]
    assert strs[7] == str(8**8)
    back = CFNumber.from_elements(strs)
    assert back.elements(8) == b.elements(8)


def test_finite_prefix_exhausts():
    cf = CFNumber.from_elements([1, 2, 3])
    assert cf.convergent(3).q == 10
    with pytest.raises(ElementsExhausted):
        cf.element(4)


def test_prefix_cap_guard():
    b = biased_number()
    with pytest.raises(PrefixCapExceeded):
        cfm.rotation_value(b, b.convergent(9).q, max_terms=4)


def test_element_validation():
    with pytest.raises(ValueError):
        CFNumber.from_elements([1, 0, 2]).convergent(3)
    with pytest.raises(ValueError):
        constant_cf(0)


# -- concurrency -------------------------------------------------------------

def test_concurrent_prefix_extension_is_consistent():
    cf = biased_number()
    results = []

    def grow():
        results.append(tuple(c.q for c in cf.convergents(120)))

    threads = [threading.Thread(target=grow) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == tuple(c.q for c in biased_number().convergents(120))

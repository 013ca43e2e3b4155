from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdir import census as cns
from latdir.contfrac import Enclosure, PrefixCapExceeded, biased_number


@pytest.fixture(scope="module")
def census5():
    return cns.build_census(5, include_rows=False)


@pytest.fixture(scope="module")
def brute31():
    b = biased_number()
    return cns.brute_force_in_R(b, b.convergent(5).q - 1)


def test_l_values_meet_floor_bound(census5):
    # L_n >= floor((n+1)^{(n+1)/2}); equality happens to hold for this number
    assert census5.l_values == {1: 2, 3: 16, 5: 216}


def test_thresholds_sit_on_top_of_zero_class(census5):
    assert census5.thresholds == [8, 1152, 216 * 73868]


def test_census_agrees_with_brute_force(census5, brute31):
    b = biased_number()
    assert census5.in_census_qs(b.convergent(5).q - 1) == brute31


def test_completeness_no_point_outside_classes(brute31):
    b = biased_number()
    assert all(cns.candidate_classes_ok(b, q) for q, _ in brute31)


def test_remainder_zero_signs_follow_parity(census5):
    for level in census5.levels[1:]:
        zero = level.classes[0]
        want = -1 if level.n % 2 else 1
        assert all(s == want for _, _, s in zero.pieces)


@given(st.integers(1, 73866), st.integers(1, 73867))
@settings(max_examples=60, deadline=None)
def test_window_counts_match_brute_force(census5, brute31, a, b):
    lo, hi = min(a, b), max(a, b)
    minus = sum(1 for q, s in brute31 if lo <= q <= hi and s < 0)
    plus = sum(1 for q, s in brute31 if lo <= q <= hi and s > 0)
    assert census5.window_counts(lo, hi) == (minus, plus)


def test_rows_consistent_with_pieces():
    rep = cns.build_census(3, include_rows=True)
    by_level = {}
    for row in rep.rows:
        by_level.setdefault((row.n, row.r_label), []).append(row)
    for level in rep.levels:
        for cls in level.classes:
            in_ms = {m for a, b, _ in cls.pieces for m in range(a, b + 1)}
            rows = by_level.get((level.n, cls.label), [])
            assert {r.m for r in rows if r.in_R} == in_ms
            for r in rows:
                assert r.q == level.q_n * r.m + cls.r


def test_row_serialization_uses_decimal_strings():
    rep = cns.build_census(7, include_rows=True)
    big = [r for r in rep.rows if r.n == 7]
    assert big, "level-7 in-R rows should be materialized"
    obj = big[-1].to_obj()
    assert isinstance(obj["q"], str)


def test_big_levels_emit_cutoff_witness():
    rep = cns.build_census(5, include_rows=True)
    lvl5 = [r for r in rep.rows if r.n == 5]
    # the first excluded multiplier right after the in-R run is recorded
    assert any(not r.in_R and r.m == 217 for r in lvl5)
    assert sum(1 for r in lvl5 if r.in_R and r.r == 0) == 216


def test_build_census_validation():
    with pytest.raises(ValueError):
        cns.build_census(4)
    with pytest.raises(ValueError):
        cns.build_census(11)


def test_census_generalizes_beyond_the_biased_number():
    # the interval solver is not biased-specific: any element sequence with
    # distinct remainder classes must reproduce the brute-force scan
    from latdir.contfrac import CFNumber, cf_product, constant_cf

    candidates = [constant_cf(4), constant_cf(5),
                  cf_product(constant_cf(4), CFNumber(lambda n: n * n + 2))]
    for cf in candidates:
        q_hi = min(cf.convergent(6).q, 30_000)
        rep = cns.build_census(5, cf=cf, include_rows=False)
        assert rep.in_census_qs(q_hi - 1) == cns.brute_force_in_R(cf, q_hi - 1)


def test_census_rejects_colliding_remainders():
    from latdir.contfrac import constant_cf

    for a in (2, 3):  # q~ collides with q_0 / 2 q_0 at level 1
        with pytest.raises(ValueError):
            cns.build_census(3, cf=constant_cf(a))


def test_level9_is_cheap_and_matches_bound():
    rep = cns.build_census(9, include_rows=False)
    assert rep.l_values[9] == 100_000  # isqrt(10^10 + small fraction)


@pytest.mark.parametrize("cap", [100, 1100, 1279])  # full levels, then the big level 5
def test_row_cap_raises_instead_of_truncating(monkeypatch, cap):
    assert len(cns.build_census(5).rows) == 1280
    monkeypatch.setattr(cns, "ROW_TOTAL_CAP", cap)
    with pytest.raises(cns.RowCapExceeded):
        cns.build_census(5)


def test_row_cap_at_the_row_count_passes(monkeypatch):
    monkeypatch.setattr(cns, "ROW_TOTAL_CAP", 1280)
    assert len(cns.build_census(5).rows) == 1280


def test_solver_widening_from_a_coarse_enclosure(census5):
    # every class of levels 1-5 solved again on its own enclosure started at
    # depth 2; level 1 decides there, every class above it has to widen
    b = biased_number()
    widened = set()
    for level in census5.levels[1:]:
        for cls in level.classes:
            enc = Enclosure(b, 2)
            solver = cns._ClassSolver(enc, level.q_n, level.p_n, cls.r, cls.p_r)
            assert solver.in_intervals(cls.m_lo, cls.m_hi) == cls.pieces
            if enc.terms > 2:
                widened.add((level.n, cls.label))
            # sign queries on their own coarse enclosure widen too
            for a, z, sign in cls.pieces:
                for m in (a, z):
                    fresh = cns._ClassSolver(Enclosure(b, 2), level.q_n, level.p_n, cls.r, cls.p_r)
                    assert fresh.sign(m) == sign
    assert widened == {(n, cls.label) for n in (2, 3, 4, 5) for cls in census5.levels[n].classes}


def test_solver_raises_at_the_cap(census5):
    level = census5.levels[3]
    cls = level.classes[0]
    solver = cns._ClassSolver(Enclosure(biased_number(), 2, 3), level.q_n, level.p_n, cls.r, cls.p_r)
    with pytest.raises(PrefixCapExceeded):
        solver.in_intervals(cls.m_lo, cls.m_hi)

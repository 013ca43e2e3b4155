import csv
import io
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latdir import census as cns
from latdir import cli
from latdir.contfrac import CFNumber, Enclosure, PrefixCapExceeded, RotationScan, biased_number, constant_cf


@pytest.fixture(scope="module")
def census5():
    return cns.build_census(5)


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


def _screen_number(kind, elems):
    if kind == "biased":
        return biased_number()
    if kind == "golden":
        return constant_cf(1)
    return CFNumber.from_elements(elems, rule=lambda n: elems[(n - 1) % len(elems)])


def _assert_screen_bound(cf, q_lo, q_hi):
    """|f - ||q v||| < q 2^-52 <= e for v = L/D and (L + 1)/D, exactly."""
    enc = Enclosure(cf, 16)
    chunks = list(cns.rotation_screen(enc, q_lo, q_hi))
    L, D = enc.L, enc.D  # the interval the screen took xf from
    assert D >= cns.SCREEN_D
    for q, f, e in chunks:
        for qq, ff, ee in zip(q.astype(np.int64).tolist(), f.tolist(), e.tolist()):
            assert ee == qq * 2.0**-50
            for v in (Fraction(L, D), Fraction(L + 1, D)):
                dist = abs(qq * v - round(qq * v))
                assert abs(Fraction(ff) - dist) < Fraction(qq, 2**52) <= Fraction(ee)


@given(st.sampled_from(["biased", "golden", "random"]),
       st.lists(st.integers(1, 10**6), min_size=1, max_size=12),
       st.integers(1, 2**20 - 64))
@example("golden", [1], 1)
@example("random", [10**6], 2**20 - 64)
@settings(max_examples=60, deadline=None)
def test_screen_error_bound_holds_exactly(kind, elems, q_lo):
    _assert_screen_bound(_screen_number(kind, elems), q_lo, q_lo + 63)


def test_screen_error_bound_holds_at_its_q_limit():
    q_hi = cns.SCREEN_Q_LIMIT - 1
    for cf in (biased_number(), constant_cf(1)):
        _assert_screen_bound(cf, q_hi - 63, q_hi)


def test_screen_widens_a_short_enclosure():
    # golden at 16 terms has D = q_16 q_17 < 2^60; the screen widens it first
    enc = Enclosure(constant_cf(1), 16)
    assert enc.D < cns.SCREEN_D
    next(cns.rotation_screen(enc, 1, 1))
    assert enc.D >= cns.SCREEN_D and enc.terms == 64


def test_screen_chunks_cover_the_range():
    enc = Enclosure(biased_number(), 16)
    q_lo, q_hi = 5, 2 * cns.SCREEN_CHUNK + 100
    qs = [q for q, _, _ in cns.rotation_screen(enc, q_lo, q_hi)]
    assert [len(q) for q in qs] == [cns.SCREEN_CHUNK, cns.SCREEN_CHUNK, 96]
    assert np.array_equal(np.concatenate(qs), np.arange(q_lo, q_hi + 1))
    assert list(cns.rotation_screen(enc, 1, 0)) == []


def test_screen_rejects_q_past_its_limit():
    enc = Enclosure(biased_number(), 16)
    with pytest.raises(ValueError):
        next(cns.rotation_screen(enc, 1, cns.SCREEN_Q_LIMIT))


def _scan_in_R(cf, q_max):
    """The census oracle on a `RotationScan`, which keeps one record per q."""
    scan = RotationScan(cf, q_max)
    return [(q, scan.sign(q)) for q in range(1, q_max + 1) if scan.in_thinning(q)]


def _big_first_element(a1):
    return CFNumber.from_elements([a1, 4], rule=lambda n: a1 if n == 1 else 4)


def test_brute_force_oracle_matches_a_rotation_scan(brute31):
    b = biased_number()
    assert brute31 == _scan_in_R(b, b.convergent(5).q - 1)
    rng = random.Random(14)
    cfs = [CFNumber.from_elements([rng.randint(1, 9) for _ in range(256)]) for _ in range(3)]
    # golden needs a wider enclosure than the 16 terms the oracle starts from
    cfs += [constant_cf(1), constant_cf(2)]
    for cf in cfs:
        assert cns.brute_force_in_R(cf, 20_000) == _scan_in_R(cf, 20_000)
    cf = _big_first_element(600_000)
    assert cns.brute_force_in_R(cf, 2_000) == _scan_in_R(cf, 2_000)
    assert cns.brute_force_in_R(b, 0) == []


# A RotationScan-based oracle peaked at 19.6 MB under tracemalloc at the biased
# q_5 - 1 = 73,867: one record per q.  The bound was fixed from that before the
# streaming scan was measured.
ORACLE_PEAK_BYTES = 2_000_000


def test_brute_force_oracle_memory_does_not_grow_with_q():
    b = biased_number()
    q_max = b.convergent(5).q - 1
    tracemalloc.start()
    try:
        hits = cns.brute_force_in_R(b, q_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hits) == 31
    assert peak < ORACLE_PEAK_BYTES


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


def assert_counted_view(rows):
    # the view's exact length is what one pass yields, and every pass is the same
    first = list(rows)
    assert not isinstance(rows, list) and len(rows) == len(first)
    assert list(rows) == first


@pytest.mark.parametrize("n_max", [1, 3, 5, 7, 9])
def test_rows_view_counts_what_it_yields(n_max):
    assert_counted_view(cns.build_census(n_max).rows)


def test_rows_consistent_with_pieces():
    rep = cns.build_census(3)
    by_level = {}
    for row in rep.rows:
        assert len(row) == len(cns.ROW_FIELDS)
        by_level.setdefault(row[:2], []).append(row)
    for level in rep.levels:
        for cls in level.classes:
            in_ms = {m for a, b, _ in cls.pieces for m in range(a, b + 1)}
            rows = by_level.get((level.n, cls.label), [])
            assert {m for _, _, _, m, _, in_R, _ in rows if in_R} == in_ms
            for _, _, r, m, q, _, _ in rows:
                assert (r, q) == (cls.r, level.q_n * m + cls.r)


def test_row_serialization_uses_decimal_strings(tmp_path):
    # the last level-9 row is the cutoff witness m = L_9 + 1 of remainder 0; its
    # q is far above 2^53, so only exact big-integer output reproduces it
    b = biased_number()
    q = b.convergent(9).q * 100_001
    assert q > 2**53 and int(float(q)) != q
    assert cli.main(["run", "biased-census", "--nmax", "9", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "biased-census-rows.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cns.ROW_FIELDS
    assert [r for r in rows[1:] if r[0] == "9"][-1] == ["9", "0", "0", "100001", str(q), "False", "-1"]


def test_big_levels_emit_cutoff_witness():
    rep = cns.build_census(5)
    lvl5 = [(r, m, in_R) for n, _, r, m, _, in_R, _ in rep.rows if n == 5]
    # the first excluded multiplier right after the in-R run is recorded
    assert (0, 217, False) in lvl5
    assert sum(1 for r, _, in_R in lvl5 if in_R and r == 0) == 216


def test_level9_rows_are_never_held_at_once():
    # the level-9 census and its exact row count hold no row: a list of its
    # 105,404 rows as dicts peaks at 38.5 MiB of tracemalloc, the view at
    # 0.03 MiB (both measured in a fresh interpreter)
    tracemalloc.start()
    try:
        rows = cns.build_census(9).rows
        assert len(rows) == 105_404
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _csv_writer_text(rows):
    """The CSV that `csv.writer` makes of the header and the tuple view."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cns.ROW_FIELDS)
    writer.writerows(iter(rows))
    return buf.getvalue()


@pytest.mark.parametrize("n_max", [1, 3, 5, 7, 9])
def test_csv_text_is_the_csv_writer_text(n_max):
    rows = cns.build_census(n_max).rows
    assert "".join(rows.csv_text()) == _csv_writer_text(rows)


BIG_ELEMENT = st.integers(cns.ROW_FULL_CAP + 1, 20 * cns.ROW_FULL_CAP)


# full levels (a_{n+1} + 1 <= ROW_FULL_CAP) write every candidate, big ones
# their in-census runs and cutoff witnesses, whose signs come from _row_sign
@given(st.one_of(st.integers(4, 60), BIG_ELEMENT),
       st.lists(st.one_of(st.integers(2, 60), BIG_ELEMENT), min_size=6, max_size=6))
@example(a1=600, rest=[4, 600, 3, 2_000, 2, 5_000])
@settings(max_examples=25, deadline=None)
def test_csv_text_matches_csv_writer_on_random_numbers(a1, rest):
    elements = [a1, *rest]
    cf = CFNumber.from_elements(elements, rule=lambda n: elements[n % len(elements)])
    rows = cns.build_census(5, cf=cf).rows
    assert "".join(rows.csv_text()) == _csv_writer_text(rows)


# The level-9 CSV is 4.66 MB of text.  Written a run slice (ROW_SLICE rows) at
# a time, the run holds a few slices; this bound was fixed before the test
# first ran, and a writer that joins all the text first fails it.
CSV_WRITE_PEAK_BYTES = 2 << 20


def test_level9_csv_is_never_held_whole(tmp_path):
    tracemalloc.start()
    try:
        assert cli.main(["run", "biased-census", "--nmax", "9", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "biased-census-rows.csv").stat().st_size > 4_600_000
    assert peak < CSV_WRITE_PEAK_BYTES


def test_big_level_zero_follows_the_row_cap():
    # a_1 = 600,000 leaves 599,999 level-0 candidates, past ROW_TOTAL_CAP; level
    # 0 keeps only its in-census points and cutoff witnesses, as other levels do
    cf = _big_first_element(600_000)
    rep = cns.build_census(3, cf=cf)
    zero = rep.levels[0].classes[0]
    assert zero.pieces == [(1, 774, 1)]
    assert cns.brute_force_in_R(cf, 1000) == [(q, 1) for q in range(1, 775)]
    want = [(m, True, 1) for m in range(1, 775)] + [(775, False, 1)]
    assert [(m, in_R, s) for n, _, _, m, _, in_R, s in rep.rows if n == 0] == want
    assert len(rep.rows) < 1000
    assert_counted_view(rep.rows)


def test_build_census_validation():
    with pytest.raises(ValueError):
        cns.build_census(4)
    with pytest.raises(ValueError):
        cns.build_census(11)


@given(st.integers(4, 60), st.lists(st.integers(2, 60), min_size=6, max_size=6))
@settings(max_examples=25, deadline=None)
def test_census_generalizes_beyond_the_biased_number(a1, rest):
    # the census is not biased-specific: any element sequence with distinct
    # remainder classes must reproduce the brute-force scan
    elements = [a1, *rest]
    cf = CFNumber.from_elements(elements, rule=lambda n: elements[n % len(elements)])
    q_hi = min(cf.convergent(6).q, 30_000)
    rep = cns.build_census(5, cf=cf)
    assert rep.in_census_qs(q_hi - 1) == cns.brute_force_in_R(cf, q_hi - 1)
    assert_counted_view(rep.rows)


def test_census_rejects_colliding_remainders():
    from latdir.contfrac import constant_cf

    for a in (2, 3):  # q~ collides with q_0 / 2 q_0 at level 1
        with pytest.raises(ValueError):
            cns.build_census(3, cf=constant_cf(a))


def test_level9_is_cheap_and_matches_bound():
    rep = cns.build_census(9)
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
    # levels 0-5 built again on an enclosure started at depth 2: the walk has
    # to widen it, and the pieces come out the same
    b = biased_number()
    enc = Enclosure(b, 2)
    levels = cns._levels(b, 5, enc)
    assert enc.terms > 2
    assert [[c.pieces for c in lv.classes] for lv in levels] == \
           [[c.pieces for c in lv.classes] for lv in census5.levels]
    # row sign queries on their own coarse enclosure widen too
    for level in census5.levels[1:]:
        for cls in level.classes:
            for a, z, sign in cls.pieces:
                for m in (a, z):
                    assert cns._row_sign(Enclosure(b, 2), level, cls, m) == sign


def test_solver_raises_at_the_cap():
    b = biased_number()
    with pytest.raises(PrefixCapExceeded):
        cns._levels(b, 3, Enclosure(b, 2, 3))


@pytest.mark.parametrize("hit, match", [
    ((2 * 72 + 3 * 17, -1, 1), "no remainder class"),  # remainder 3 q_2 at level 3
    ((4, -1, 17), "outside"),                          # q_1 run past a_2 = 16
])
def test_hit_outside_the_classes_raises(monkeypatch, hit, match):
    # the census reports an approximate its classes cannot hold, never drops it
    b = biased_number()
    assert (b.convergent(1).q, b.convergent(2).q, b.convergent(3).q) == (4, 17, 72)
    monkeypatch.setattr(cns, "worley_walk", lambda enc, T, C: iter([hit]))
    with pytest.raises(ValueError, match=match):
        cns.build_census(3)

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latdir import lattice as lm
from latdir.contfrac import biased_number, constant_cf
from latdir.lattice import (CandidateBudgetExceeded, DegenerateRational,
                            Lattice, RegionSpec, UnboundedRegion,
                            count_approximates, count_approximates_many,
                            count_region, count_regions, enumerate_in_box,
                            g_flow, lattice_from_x, region_volume,
                            shell_count)
from latdir.siegel import haar_rotation
from latdir.sphere import Cap, Hemisphere, SignSet, full_sphere

Z2 = Lattice(np.eye(2))
Z3 = Lattice(np.eye(3))
MINUS = SignSet(frozenset({-1}))


def random_unimodular(rng, n, shears=8):
    B = np.eye(n)
    for _ in range(shears):
        i, j = rng.choice(n, 2, replace=False)
        S = np.eye(n)
        S[i, j] = rng.integers(-2, 3)
        B = B @ S
    return Lattice(B)


# -- lattices and the flow ----------------------------------------------------

def test_lattice_from_x_examples():
    assert np.allclose(lattice_from_x(0.0).basis, np.eye(2))
    pts, _ = enumerate_in_box(lattice_from_x(0.5), [-0.6, 0.5], [0.6, 1.5])
    assert sorted(map(tuple, pts)) == [(-0.5, 1.0), (0.5, 1.0)]
    lat = lattice_from_x((0.3, 0.7))
    pts, _ = enumerate_in_box(lat, [0.25, 0.65, 0.9], [0.35, 0.75, 1.1])
    assert sorted(map(tuple, np.round(pts, 12))) == [(0.3, 0.7, 1.0)]


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(2 * np.eye(2))
    with pytest.raises(ValueError):
        Lattice(np.ones((2, 3)))
    Lattice(2 * np.eye(2), check=False)  # explicit bypass allowed


def test_g_flow():
    assert np.allclose(g_flow(0.0, 2), np.eye(3))
    assert np.allclose(np.diag(g_flow(math.log(2), 1)), [2.0, 0.5])
    for d in (1, 2, 3):
        assert np.linalg.det(g_flow(1.3, d)) == pytest.approx(1.0, abs=1e-12)


def test_g_flow_maps_shells():
    # v in Q_{i+1} iff g_s v in Q_i for s = log2/d
    rng = np.random.default_rng(3)
    for d in (1, 2):
        s = math.log(2) / d
        g = g_flow(s, d)
        spec_lo = RegionSpec("Q", d, T=float(2**3), c=1.0, norm="sup")
        spec_hi = RegionSpec("Q", d, T=float(2**4), c=1.0, norm="sup")
        V = np.array([np.concatenate([rng.uniform(-1.2, 1.2, d), rng.uniform(7.0, 17.0, 1)])
                      for _ in range(200)])
        ok_hi, _, _ = lm._classify(V, spec_hi)
        ok_lo, _, _ = lm._classify(V @ g.T, spec_lo)
        assert np.array_equal(ok_hi, ok_lo)


# -- regions -------------------------------------------------------------------

def test_classify_examples():
    ok, _, _ = lm._classify(np.array([[0.01, 40.0], [0.1, 40.0]]),
                            RegionSpec("P", 1, T=50, c=1, norm="sup"))
    assert ok.tolist() == [True, False]
    # scalar constraints pass but v_1 = 0: degenerate, never in A
    spec = RegionSpec("R", 1, T=10, c=1, eps=0.5, norm="sup", A=MINUS)
    ok, degenerate, in_A = lm._classify(np.array([[0.0, 7.0]]), spec)
    assert ok.tolist() == degenerate.tolist() == [True] and in_A.tolist() == [False]


def test_classify_rechecks_each_grazer_on_its_own_basis():
    # two grazing points n = (1, 1), one on each basis of a stack: exactly on
    # the boundary |v_1| |v_2| = 1 on basis 1, 2^-39 beyond it on basis 0
    bases = np.array([np.diag([2.0, 0.5 + 2.0**-40]), np.diag([2.0, 0.5])])
    spec = RegionSpec("R", 1, T=1.0, c=1.0, eps=0.1)
    points = np.array([[2.0, 0.5 + 2.0**-40], [2.0, 0.5]])
    ok, _, _ = lm._classify(points, spec, np.ones((2, 2), np.int64), bases, np.array([0, 1]))
    assert ok.tolist() == [False, True]


def test_region_validation():
    with pytest.raises(ValueError):
        RegionSpec("X", 1, T=10)
    with pytest.raises(ValueError):
        RegionSpec("R", 1, T=10, eps=1.5)
    for c in (-1.0, math.nan):
        with pytest.raises(ValueError, match="c must be positive"):
            RegionSpec("P", 1, T=10, c=c)
    assert RegionSpec("P", 1, T=10, c=0.0).c == 1.0  # 0 takes the default
    with pytest.raises(UnboundedRegion):
        count_region(Z2, RegionSpec("R", 1, T=10, eps=0.0))
    with pytest.raises(UnboundedRegion):
        region_volume(RegionSpec("R", 1, T=10, eps=0.0))


def test_region_volumes():
    assert region_volume(RegionSpec("P", 1, T=2, c=1)) == pytest.approx(2 * math.log(2))
    spec = RegionSpec("R", 1, T=123.0, c=1, eps=1 / math.e, A=MINUS)
    assert region_volume(spec) == pytest.approx(1.0)
    # scale invariance in T for kind R
    a = region_volume(RegionSpec("R", 2, T=5.0, c=0.7, eps=0.2))
    b = region_volume(RegionSpec("R", 2, T=700.0, c=0.7, eps=0.2))
    assert a == b
    # restricting to A scales by vol(A)
    p_all = region_volume(RegionSpec("P", 2, T=2.0, c=1.0))
    p_hemi = region_volume(RegionSpec("P", 2, T=2.0, c=1.0, A=Hemisphere((1.0, 0.0))))
    assert p_hemi / p_all == pytest.approx(0.5)


def test_region_volume_monte_carlo_oracle():
    # hit-or-miss volume over the bounding box
    spec = RegionSpec("R", 2, T=1.0, c=1.0, eps=0.25)
    lo, hi = spec.bounding_box()
    rng = np.random.default_rng(42)
    M = 200_000
    pts = rng.uniform(lo, hi, size=(M, 3))
    v1 = pts[:, :2]
    hits = (np.sum(v1 * v1, axis=1) * pts[:, 2] <= spec.c) & (pts[:, 2] >= spec.eps)
    box_vol = float(np.prod(hi - lo))
    est = hits.mean() * box_vol
    se = box_vol * math.sqrt(hits.mean() * (1 - hits.mean()) / M)
    assert abs(est - region_volume(spec)) <= 4 * se


# -- enumeration ---------------------------------------------------------------

def test_enumerate_examples():
    assert len(enumerate_in_box(Z2, [-1.5, -1.5], [1.5, 1.5])[0]) == 8
    assert len(enumerate_in_box(Z2, [0.2, 0.2], [0.8, 0.8])[0]) == 0


def test_enumerate_budget():
    with pytest.raises(CandidateBudgetExceeded):
        enumerate_in_box(Z2, [-500.0, -500.0], [500.0, 500.0], budget=100)


def test_enumerate_budget_counts_huge_box_exactly():
    # (2e12 + 1)^2 candidates: an int64 product would wrap, the exact count trips
    with pytest.raises(CandidateBudgetExceeded):
        enumerate_in_box(Z2, [-1e12, -1e12], [1e12, 1e12])
    # past 2^53 a float product is inexact too: the message carries the exact count
    with pytest.raises(CandidateBudgetExceeded, match=rf"^\d{{25}} candidates exceeds budget {2**62}$"):
        enumerate_in_box(Z2, [-1e12, -1e12], [1e12, 1e12], budget=2**62)


def test_enumerate_budget_admits_exactly_the_budget():
    lo, hi = [-2.5, -1.5], [2.5, 1.5]
    with pytest.raises(CandidateBudgetExceeded) as e:
        enumerate_in_box(Z2, lo, hi, budget=0)
    need = int(str(e.value).split()[0])
    assert need >= 15  # the 5 x 3 integer points of the box, plus margin
    assert len(enumerate_in_box(Z2, lo, hi, budget=need)[0]) == 14
    with pytest.raises(CandidateBudgetExceeded, match=f"{need} candidates exceeds budget {need - 1}"):
        enumerate_in_box(Z2, lo, hi, budget=need - 1)


DEGENERATE = [[[1.0, 2.0], [2.0, 4.0]],
              [[1.0, 0.0], [0.0, 0.0]],
              [[1.0, 1.0], [1.0, 1.0 + 2.0**-45]],
              [[1.0, 0.0], [0.0, math.nan]]]
# the `_past_the_crossover` tests and the [1]/[32] cases run a check on a
# stack of this many bases too, where the rounds of `_lll_stacked` carry many
# bases at once (once the size at which a per-basis reduction gave way to it)
BIG_STACK = 32


@pytest.mark.parametrize("basis", DEGENERATE)
def test_enumerate_degenerate_basis_raises_budget(basis, size=3):
    # the basis comes last in a stack of `size`, after copies of Z^2
    stack = np.array([np.eye(2)] * (size - 1) + [basis])
    with pytest.raises(CandidateBudgetExceeded):
        next(lm.enumerate_stacked(stack, [-1.0, -1.0], [1.0, 1.0]))


@pytest.mark.parametrize("basis", DEGENERATE)
def test_enumerate_degenerate_basis_raises_budget_past_the_crossover(basis):
    test_enumerate_degenerate_basis_raises_budget(basis, size=BIG_STACK)


def test_enumerate_infinite_box_raises_budget():
    # an infinite width scales like a zero one, so the reduction runs and the
    # unbounded preimage is what raises
    with pytest.raises(CandidateBudgetExceeded, match="unbounded preimage"):
        enumerate_in_box(Z2, [-math.inf, -1.0], [math.inf, 1.0])


@pytest.mark.parametrize("size", [1, BIG_STACK])
def test_enumerate_rejects_a_transform_beyond_float_precision(size):
    # unimodular, but its reduction needs U entries of 10^20, which neither
    # int64 nor the float product B U holds; it comes last in a stack of `size`
    stack = np.array([np.eye(2)] * (size - 1) + [[[1.0, 1e20], [0.0, 1.0]]])
    with pytest.raises(CandidateBudgetExceeded, match="beyond float precision"):
        next(lm.enumerate_stacked(stack, [-1.0, -1.0], [1.0, 1.0]))


# each quotient is 2^30, far below 2^53, but the first sweep makes
# U_1 = e_1 - 2^30 e_0 and then U_2 -= 2^30 U_1, an entry of 2^60
STAIRS = [[1.0, 2.0**30, 0.0], [0.0, 1.0, 2.0**30], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("size", [1, BIG_STACK])
def test_lll_raises_before_one_sweep_passes_2_53(size):
    stack = np.array([np.eye(3)] * (size - 1) + [STAIRS])
    with pytest.raises(CandidateBudgetExceeded, match="beyond float precision"):
        lm._lll_stacked(stack)
    with pytest.raises(CandidateBudgetExceeded, match="beyond float precision"):
        next(lm.enumerate_stacked(stack, [-1.0] * 3, [1.0] * 3))


@pytest.mark.parametrize("size", [2, BIG_STACK])
def test_lll_reduces_when_only_the_stack_bound_trips(size):
    # one basis's quotient 2^40, then another's 2^20 in the same sweep: the
    # stack's bound (1 + 2^40)(1 + 2^20) reaches 2^53, but no basis's entries
    # pass 2^40 + 1, so the per-basis test lets both steps through
    assert (1 + 2**40) * (1 + 2**20) >= lm.U_ENTRY_CAP > 2**40 + 1
    wide = np.eye(3)
    wide[0, 1] = 2.0**40
    tall = np.eye(3)
    tall[1, 2] = 2.0**20
    stack = np.array([np.eye(3)] * (size - 2) + [wide, tall])
    U = lm._lll_stacked(stack)
    assert np.array_equal(stack @ U, np.broadcast_to(np.eye(3), stack.shape))
    assert (U[-2, 0, 1], U[-1, 1, 2]) == (-(2**40), -(2**20))
    which, _, ns = (np.concatenate(part) for part in zip(*lm.enumerate_stacked(stack, [-1.5] * 3, [1.5] * 3)))
    assert np.array_equal(np.bincount(which, minlength=size), [26] * size)


def test_enumerate_flowed_basis_needs_few_candidates_at_t10():
    # the reduced box stays at a few hundred candidates where the unreduced
    # needle preimage held ~10^8
    lo, hi = RegionSpec("R", 2, T=1.0, c=1.0, eps=0.1).bounding_box()
    g = g_flow(10.0, 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        moved = Lattice(g @ haar_rotation(3, rng), check=False)
        pts, ns = enumerate_in_box(moved, lo, hi, budget=5000)
        assert len(pts) > 0 and np.all(np.any(ns != 0, axis=1))


def test_enumerate_returns_lexicographic_coords():
    lat = random_unimodular(np.random.default_rng(5), 3)
    _, ns = enumerate_in_box(lat, [-3.0, -3.0, -3.0], [3.0, 3.0, 3.0])
    assert len(ns) > 1 and list(map(tuple, ns.tolist())) == sorted(map(tuple, ns.tolist()))


def test_one_dimensional_lattices_match_brute_force():
    # a 1x1 basis is already reduced; the LLL round used to take argmax over no pair
    pts, ns = enumerate_in_box(Lattice(np.array([[1.0]])), [-2.5], [2.5])
    assert ns.tolist() == [[-2], [-1], [1], [2]] and pts.tolist() == [[-2.0], [-1.0], [1.0], [2.0]]
    rng = np.random.default_rng(1)
    scales = [1.0, -1.0, 0.5, -3.0, 0.37]
    lo = rng.uniform(-4.0, 1.0, len(scales))
    hi = lo + rng.uniform(0.0, 4.0, len(scales))
    which, _, ns = (np.concatenate(part) for part in zip(
        *lm.enumerate_stacked(np.array(scales)[:, None, None], lo[:, None], hi[:, None])))
    for k, a in enumerate(scales):
        want = [n for n in range(-20, 21) if n and lo[k] <= n * a <= hi[k]]
        assert ns[which == k, 0].tolist() == want


def test_enumerate_rejects_bad_box():
    with pytest.raises(ValueError):
        enumerate_in_box(Z2, [0.0, 0.0], [-1.0, 1.0])
    with pytest.raises(ValueError):
        enumerate_in_box(Z2, [0.0], [1.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_enumerate_exhaustive_vs_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    lat = random_unimodular(rng, n)
    lo = rng.uniform(-4, 0, n)
    hi = lo + rng.uniform(0.5, 5, n)
    got = sorted(map(tuple, np.round(enumerate_in_box(lat, lo, hi)[0], 9)))
    # brute-force radius from the preimage of the box corners
    inv = np.linalg.inv(lat.basis)
    rad = int(np.ceil(np.max(np.abs(inv) @ np.maximum(np.abs(lo), np.abs(hi))))) + 1
    if rad > 70:  # keep the integer grid affordable; the skew cases are still covered
        rad = 0
    if rad:
        axes = [np.arange(-rad, rad + 1)] * n
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        w = grid @ lat.basis.T
        mask = np.all(w >= lo, axis=1) & np.all(w <= hi, axis=1) & np.any(grid != 0, axis=1)
        want = sorted(map(tuple, np.round(w[mask], 9)))
        assert got == want


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.floats(0.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_enumerate_invariant_under_basis_change(seed, d, t):
    # B and B V span one lattice: the points agree up to rounding at the box edge
    rng = np.random.default_rng(seed)
    B = g_flow(t, d) @ haar_rotation(d + 1, rng)
    V = random_unimodular(rng, d + 1).basis.astype(np.int64)
    lo, hi = RegionSpec("R", d, T=1.0, c=1.0, eps=0.1).bounding_box()
    _, ns = enumerate_in_box(Lattice(B, check=False), lo, hi)
    _, ms = enumerate_in_box(Lattice(B @ V, check=False), lo, hi)
    a = set(map(tuple, ns.tolist()))
    b = set(map(tuple, (ms @ V.T).tolist()))
    V_inv = np.rint(np.linalg.inv(V)).astype(np.int64)
    for n in a ^ b:
        n = np.array(n)
        p = B @ n
        rounding = 32 * np.finfo(float).eps * (np.abs(B) @ (np.abs(n) + np.abs(V) @ np.abs(V_inv @ n)))
        assert np.any((np.abs(p - lo) <= rounding) | (np.abs(p - hi) <= rounding))


def test_enumerate_skewed_needle_preimage():
    # a g_t-distorted basis produces needle preimages; counts must still match
    # the g_t equivariance identity
    x = 0.375
    lat = lattice_from_x(x)
    spec_T = RegionSpec("R", 1, T=16.0, c=1.0, eps=0.25, norm="sup")
    direct = count_region(lat, spec_T)
    g = np.diag([16.0, 1.0 / 16.0])  # e^t = T for d = 1, exactly representable
    moved = Lattice(g @ lat.basis, check=False)
    spec_1 = RegionSpec("R", 1, T=1.0, c=1.0, eps=0.25, norm="sup")
    assert count_region(moved, spec_1).total == direct.total


# -- stacked enumeration -------------------------------------------------------

def _stacked(bases, lo, hi, **kw):
    """All blocks of `enumerate_stacked` joined, checking that they come in
    (which, n) order and that a basis never spans two blocks."""
    blocks = list(lm.enumerate_stacked(np.asarray(bases), lo, hi, **kw))
    for (w0, _, _), (w1, _, _) in zip(blocks, blocks[1:]):
        assert w0[-1] < w1[0]
    if not blocks:
        return np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros((0, 2), np.int64)
    which, pts, ns = (np.concatenate(part) for part in zip(*blocks))
    keys = [(int(k), *map(int, n)) for k, n in zip(which, ns)]
    assert keys == sorted(keys)
    return which, pts, ns


def _brute_force_2d(B, lo, hi) -> np.ndarray:
    """Every nonzero n in Z^2 with lo <= n @ B.T <= hi, sorted: scan n_0 over
    a bound from B^{-1}, take each n_1 the row with the larger n_1
    coefficient allows (widened by 1), and test the float point."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    corner = np.maximum(np.abs(lo), np.abs(hi))
    r = int(np.ceil(np.abs(np.linalg.inv(B)[0]) @ corner)) + 1
    i = int(np.argmax(np.abs(B[:, 1])))
    cands = []
    for n0 in range(-r, r + 1):
        ends = sorted(((lo[i] - B[i, 0] * n0) / B[i, 1], (hi[i] - B[i, 0] * n0) / B[i, 1]))
        cands += [(n0, n1) for n1 in range(math.floor(ends[0]) - 1, math.ceil(ends[1]) + 2)]
    ns = np.array([n for n in cands if n != (0, 0)], dtype=np.int64)
    pts = ns.astype(float) @ B.T
    ns = ns[np.all((pts >= lo) & (pts <= hi), axis=1)]
    return ns[np.lexsort(ns.T[::-1])]


def _repeat(items, size):
    """`items` cycled to length `size` (at least one full copy)."""
    return [items[k % len(items)] for k in range(max(size, len(items)))]


def test_stacked_mixes_flow_times(size=24):
    # flowed Haar bases at t = 0, 3 and 8, cycled to a stack of `size`, against
    # one enumeration per basis (a one-basis stack) and the brute-force scan
    lo, hi = RegionSpec("R", 1, T=1.0, c=1.0, eps=0.1).bounding_box()
    rng = np.random.default_rng(11)
    distinct = [g_flow(t, 1) @ haar_rotation(2, rng) for _ in range(4) for t in (0.0, 3.0, 8.0)]
    bases = _repeat(distinct, size)
    which, pts, ns = _stacked(bases, lo, hi)
    assert set(which.tolist()) == set(range(len(bases)))
    for k, B in enumerate(distinct):
        one_pts, one_ns = enumerate_in_box(Lattice(B, check=False), lo, hi)
        assert np.array_equal(one_ns, _brute_force_2d(B, lo, hi))
        for copy in range(k, len(bases), len(distinct)):
            assert np.array_equal(ns[which == copy], one_ns) and np.array_equal(pts[which == copy], one_pts)


def test_stacked_mixes_flow_times_past_the_crossover():
    test_stacked_mixes_flow_times(size=BIG_STACK)


def test_stacked_takes_one_box_per_basis(size=8):
    # four bases with their own boxes, cycled to a stack of `size`
    rng = np.random.default_rng(3)
    distinct = [haar_rotation(2, rng), np.eye(2), g_flow(2.0, 1) @ haar_rotation(2, rng), np.eye(2)]
    lo = np.array(_repeat([[-2.0, -1.5], [0.2, 0.2], [-1.0, 0.1], [0.0, -3.0]], size))
    hi = np.array(_repeat([[1.0, 2.5], [0.8, 0.8], [3.0, 1.0], [0.0, 3.0]], size))
    bases = _repeat(distinct, size)
    which, pts, ns = _stacked(bases, lo, hi)
    # Z^2 has no point in [0.2, 0.8]^2, so basis 1 yields nothing; box 3 has width 0 in x
    assert set(which.tolist()) == {k for k in range(len(bases)) if k % 4 != 1}
    for k, B in enumerate(bases):
        one_pts, one_ns = enumerate_in_box(Lattice(B, check=False), lo[k], hi[k])
        assert np.array_equal(ns[which == k], one_ns) and np.array_equal(pts[which == k], one_pts)
        if k < len(distinct):
            assert np.array_equal(one_ns, _brute_force_2d(B, lo[k], hi[k]))
    for k in range(3, len(bases), 4):
        assert ns[which == k].tolist() == [[0, -3], [0, -2], [0, -1], [0, 1], [0, 2], [0, 3]]


def test_stacked_takes_one_box_per_basis_past_the_crossover():
    test_stacked_takes_one_box_per_basis(size=BIG_STACK)


def test_stacked_flowed_bases_in_dimension_four():
    # n = 4 (d = 3, t = 6), BIG_STACK bases in one stack: every block equals
    # that basis's own one-basis enumeration
    lo, hi = RegionSpec("R", 3, T=1.0, c=1.0, eps=0.1).bounding_box()
    rng = np.random.default_rng(2026)
    bases = [g_flow(6.0, 3) @ haar_rotation(4, rng) for _ in range(BIG_STACK)]
    which, pts, ns = _stacked(bases, lo, hi)
    assert len(set(which.tolist())) > BIG_STACK // 2
    for k, B in enumerate(bases):
        one_pts, one_ns = enumerate_in_box(Lattice(B, check=False), lo, hi)
        assert np.array_equal(ns[which == k], one_ns) and np.array_equal(pts[which == k], one_pts)


@pytest.mark.parametrize("size", [1, BIG_STACK])
def test_capped_reduction_keeps_every_point(size, monkeypatch):
    # two rounds leave the flowed bases partly reduced (at t = 2 their
    # integer boxes hold 5-50 times the candidates): U is still exact and
    # unimodular, so the points are those of the full reduction
    lo, hi = RegionSpec("R", 2, T=1.0, c=1.0, eps=0.1).bounding_box()
    rng = np.random.default_rng(5)
    bases = [g_flow(2.0, 2) @ haar_rotation(3, rng) for _ in range(size)]
    full = _stacked(bases, lo, hi)
    monkeypatch.setattr(lm, "LLL_STEP_CAP", 2)
    capped = _stacked(bases, lo, hi)
    assert len(full[0]) and all(np.array_equal(a, b) for a, b in zip(full, capped))


@pytest.mark.parametrize("size", [1, BIG_STACK])
def test_non_unimodular_transform_raises_arithmetic_error(size, monkeypatch):
    monkeypatch.setattr(lm, "_int_dets", lambda U: np.full(len(U), 2, dtype=object))
    with pytest.raises(ArithmeticError, match="non-unimodular"):
        next(lm.enumerate_stacked(np.array([np.eye(2)] * size), [-1.5, -1.5], [1.5, 1.5]))


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _int_matrices(n):
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(_int_matrices(n), min_size=1, max_size=6)))
@example([[[0, 1], [1, 0]], [[2, 3], [4, 6]], [[0, 0], [5, 7]]])  # swap, singular, zero column
@example([[[0, 0, 1], [0, 2, 0], [3, 0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
          [[10**30, 1, 0], [0, 0, 1], [1, 0, 0]]])  # two swaps, zero pivot late, big entries
@settings(max_examples=100, deadline=None)
def test_int_det_matches_cofactor_expansion(stack):
    # the stacked Bareiss determinant, matrix by matrix, with per-matrix pivot swaps
    dets = lm._int_dets(np.array(stack, dtype=object))
    assert dets.tolist() == [_cofactor_det(rows) for rows in stack]


def _assert_r_matches_householder(A):
    R = lm._gram_schmidt_r(A)
    ref = np.abs(np.linalg.qr(A, mode="r"))
    tol = 1e-14 * np.linalg.norm(A, axis=1)[:, None, :]  # relative to each column's norm
    assert np.all(np.diagonal(R, axis1=1, axis2=2) >= 0.0)
    assert np.all(np.abs(np.abs(R) - ref) <= tol)


def test_gram_schmidt_r_matches_householder_qr():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        _assert_r_matches_householder(rng.standard_normal((50, n, n)))
    for d, t in [(1, 6.0), (2, 6.0), (2, 12.0), (3, 8.0)]:  # condition numbers up to e^36
        ks = np.stack([haar_rotation(d + 1, rng) for _ in range(50)])
        _assert_r_matches_householder(g_flow(t, d) @ ks)
    # the DEGENERATE bases (which must still raise, see the tests above) too
    _assert_r_matches_householder(np.array([B for B in DEGENERATE if np.all(np.isfinite(B))]))


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([3, 10**4, 10**9, 2**62, 2**63]),
       st.sampled_from([0, 2**61, -(2**61)]))
@settings(max_examples=80, deadline=None)
def test_lex_order_is_lexsort(seed, n_keys, span, offset):
    # ties included; keys are packed while their spans' product fits in int64
    rng = np.random.default_rng(seed)
    half = span // 2 if not offset else min(span // 2, 2**61)  # offset + key stays in int64
    keys = list(offset + rng.integers(-half, half + 1, (n_keys, int(rng.integers(0, 300)))))
    assert np.array_equal(lm._lex_order(keys), np.lexsort(keys[::-1]))


def test_lex_order_takes_a_key_spanning_more_than_2_63_as_it_is():
    wide = np.array([2**62 + 5, -(2**62) - 5, 0, 7, 2**62 + 5, -(2**62) - 5])
    narrow = np.array([1, 2, 3, 0, 0, 2])
    for keys in ([narrow, wide, narrow], [wide, narrow], [narrow, wide]):
        assert np.array_equal(lm._lex_order(keys), np.lexsort(keys[::-1]))


def _near(qx: float, r: float) -> list[int]:
    return [p for p in range(math.floor(qx - r) - 1, math.ceil(qx + r) + 2) if abs(qx - p) <= r]


@given(d=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_horo_candidates_come_sorted_by_row_q_p(d, data):
    # the enumerator's (which, n) order is (row, q, p): no sort of its own
    rows = data.draw(st.integers(1, 4))
    xs = data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d), min_size=rows, max_size=rows))
    Cs = data.draw(st.lists(st.floats(0.05, 2.5), min_size=rows, max_size=rows))
    q_lo = data.draw(st.lists(st.integers(1, 200), min_size=rows, max_size=rows))
    q_hi = [lo + data.draw(st.integers(-3, 100)) for lo in q_lo]  # empty below 0, one q at 0
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, d), np.int64))
    row, q, p = (np.concatenate(part) for part in
                 zip(empty, *lm._horo_candidates(np.array(xs), q_lo, q_hi, Cs)))
    assert np.array_equal(np.lexsort([*p.T[::-1], q, row]), np.arange(len(row)))

    def hit(i, qq, pp):
        return all(abs(qq * xj - pj) <= Cs[i] * qq ** (-1.0 / d) for xj, pj in zip(xs[i], pp))

    got = [(i, qq, *pp) for i, qq, pp in zip(row.tolist(), q.tolist(), p.tolist()) if hit(i, qq, pp)]
    want = [(i, qq, *pp) for i in range(rows) for qq in range(q_lo[i], q_hi[i] + 1)
            for pp in itertools.product(*(_near(qq * xj, Cs[i] * qq ** (-1.0 / d)) for xj in xs[i]))]
    assert got == want


def test_stacked_expands_a_large_box_in_slices():
    # 201^2 - 1 = 40,400 candidates span many chunks; a small box follows in the stack
    assert 201**2 > 10 * lm.ENUM_CHUNK
    small = haar_rotation(2, np.random.default_rng(8))
    lo = np.array([[-100.0, -100.0], [-1.5, -1.5]])
    hi = np.array([[100.0, 100.0], [1.5, 1.5]])
    which, pts, ns = _stacked([np.eye(2), small], lo, hi)
    big = ns[which == 0]
    assert len(big) == 40_400
    grid = np.stack(np.meshgrid(np.arange(-100, 101), np.arange(-100, 101), indexing="ij"), -1).reshape(-1, 2)
    assert np.array_equal(big, grid[np.any(grid != 0, axis=1)])
    assert np.array_equal(pts[which == 0], big.astype(float))
    assert np.array_equal(ns[which == 1], _brute_force_2d(small, lo[1], hi[1]))
    pts_one, ns_one = enumerate_in_box(Z2, lo[0], hi[0])
    assert np.array_equal(ns_one, big) and np.array_equal(pts_one, pts[which == 0])


# singular, zero-row and NaN bases; the near-singular one trips the budget
# instead (test_enumerate_degenerate_basis_raises_budget)
STACKED_DEGENERATE = [DEGENERATE[0], DEGENERATE[1], DEGENERATE[3]]


def test_stacked_degenerate_basis_raises(size=3, bases=STACKED_DEGENERATE):
    # each basis second in a stack of `size`, among copies of Z^2
    for basis in bases:
        stack = [np.eye(2), np.array(basis)] + [np.eye(2)] * (size - 2)
        with pytest.raises(CandidateBudgetExceeded, match="degenerate"):
            next(lm.enumerate_stacked(np.array(stack), [-1.5, -1.5], [1.5, 1.5]))


@pytest.mark.parametrize("basis", STACKED_DEGENERATE)
def test_stacked_degenerate_basis_raises_past_the_crossover(basis):
    test_stacked_degenerate_basis_raises(BIG_STACK, [basis])


def test_stacked_over_budget_box_raises_before_any_candidate():
    # the first box is fine, the second holds 1,002,001 candidates: the check
    # covers every box before the first chunk, and nothing is allocated for it
    lo = np.array([[-1.5, -1.5], [-500.0, -500.0]])
    hi = np.array([[1.5, 1.5], [500.0, 500.0]])
    blocks = lm.enumerate_stacked(np.array([np.eye(2), np.eye(2)]), lo, hi, budget=10**6)
    tracemalloc.start()
    try:
        with pytest.raises(CandidateBudgetExceeded, match="1002001 candidates exceeds budget 1000000"):
            next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_stacked_rejects_bad_shapes():
    with pytest.raises(ValueError):
        next(lm.enumerate_stacked(np.eye(2), [0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ValueError):
        next(lm.enumerate_stacked(np.array([np.eye(2)] * 2), np.zeros((3, 2)), np.ones((3, 2))))
    with pytest.raises(ValueError):
        next(lm.enumerate_stacked(np.array([np.eye(2)]), [1.0, 0.0], [0.0, 1.0]))


# -- counting -------------------------------------------------------------------

def test_count_region_examples():
    spec = RegionSpec("P", 1, T=10, c=1, norm="sup")
    assert count_region(Z2, spec).total == 9
    res = count_region(Z2, RegionSpec("P", 1, T=10, c=1, norm="sup", A=MINUS))
    assert (res.total, res.in_A, res.degenerate) == (9, 0, 9)


def test_count_region_euclidean_boundary_z3():
    # boundary points (+-1, 0, 1), (0, +-1, 1) satisfy ||v1||^2 v2 = 1 <= c
    res = count_region(Z3, RegionSpec("R", 2, T=1.0, c=1.0, eps=0.9), want_witnesses=True)
    assert res.total == 5
    assert sorted(res.witnesses) == [(-1.0, 0.0, 1.0), (0.0, -1.0, 1.0),
                                     (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)]


def test_count_region_generic_matches_horospherical():
    # same lattice through both code paths
    x = 0.37
    horo = lattice_from_x(x)
    generic = Lattice(horo.basis.copy())  # plain tag: box enumeration path
    for spec in (RegionSpec("P", 1, T=40, c=1, norm="sup"),
                 RegionSpec("R", 1, T=60, c=1, eps=0.3, norm="sup"),
                 RegionSpec("P", 1, T=25, c=0.8, norm="euclidean", A=MINUS)):
        a = count_region(horo, spec)
        b = count_region(generic, spec)
        assert (a.total, a.in_A, a.degenerate) == (b.total, b.in_A, b.degenerate)


REGIONS_LATTICES = {
    "horospherical-d1": lattice_from_x(0.37),
    "generic-d1": Lattice(lattice_from_x(0.37).basis.copy()),
    "horospherical-d2": lattice_from_x((0.3137515, 0.7390812)),
    "generic-d2": Lattice(haar_rotation(3, np.random.default_rng(4)), check=False),
}


@pytest.mark.parametrize("name", list(REGIONS_LATTICES))
@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("with_A", [False, True])
@pytest.mark.parametrize("want_witnesses", [False, True])
def test_count_regions_equals_one_call_a_spec(name, norm, with_A, want_witnesses):
    lat = REGIONS_LATTICES[name]
    d = lat.dim - 1
    A = BATCH_SETS[d] if with_A else None
    # shells with their own c (c = 1e-6 leaves Q_3 empty), a P and an R region
    specs = [RegionSpec("Q", d, T=2.0**i, c=c, norm=norm, A=A)
             for i, c in ((1, 1.0), (2, 0.5), (3, 1e-6), (4, 2.0), (5, 1.0))]
    specs += [RegionSpec("P", d, T=40.0, c=0.8, norm=norm, A=A),
              RegionSpec("R", d, T=60.0, c=1.0, eps=0.3, norm=norm, A=A)]
    got = count_regions(lat, specs, want_witnesses=want_witnesses)
    want = [count_region(lat, spec, want_witnesses=want_witnesses) for spec in specs]
    assert [r.to_obj() for r in got] == [r.to_obj() for r in want]
    assert got[2].total == 0 and sum(r.total for r in got) > 0


@pytest.mark.parametrize("name", list(REGIONS_LATTICES))
def test_count_regions_checks_every_spec_before_enumerating(name, monkeypatch):
    lat = REGIONS_LATTICES[name]
    d = lat.dim - 1

    def enumerated(*args, **kwargs):
        raise AssertionError("a region was enumerated")

    monkeypatch.setattr(lm, "enumerate_stacked", enumerated)
    shell = RegionSpec("Q", d, T=8.0)
    for bad, error in ((RegionSpec("R", d, T=10.0, eps=0.0), UnboundedRegion),
                       (RegionSpec("Q", d + 1, T=8.0), ValueError)):
        for at in range(3):
            specs = [shell, shell]
            specs.insert(at, bad)
            with pytest.raises(error):
                count_regions(lat, specs)
    assert count_regions(lat, []) == []


def test_count_approximates_biased_convergents_all_counted():
    b = biased_number()
    res = count_approximates(b, 72, C=1, A=SignSet(frozenset({-1, 1})), want_witnesses=True)
    hit_qs = {q for q, _ in res.witnesses}
    for n in (1, 2, 3):
        assert b.convergent(n).q in hit_qs
    assert res.in_A == res.total and res.degenerate == 0


def test_count_approximates_golden_t1():
    res = count_approximates(constant_cf(1), 1, C=1)
    assert res.total == 2  # q = 1 with p = 0 and p = 1


def test_count_approximates_constant_four_convergents():
    cf = constant_cf(4)
    res = count_approximates(cf, 72, C=1, want_witnesses=True)
    hit_qs = {q for q, _ in res.witnesses}
    assert {4, 17, 72} <= hit_qs  # q_1..q_3 all counted


def test_rational_x_near_points_sit_on_the_line():
    # for x = 1/2 the only gaps of q x to the integers are 0 and 1/2, so any
    # point with |v_1| < 1/2 lies exactly on the line through (x, 1)
    res = count_approximates(0.5, 100, C=0.499, want_witnesses=True)
    assert res.total == res.degenerate > 0
    for _, v1, unit in res.witnesses:
        assert v1[0] == 0.0 and unit is None


def test_count_approximates_full_sphere_ratio_one():
    res = count_approximates(0.7317381, 500, A=full_sphere(1))
    assert res.in_A == res.total and res.degenerate == 0


def test_exact_and_float_paths_agree():
    b = biased_number()
    exact = count_approximates(b, 3000, C=1, A=MINUS)
    floaty = count_approximates(float(b), 3000, C=1, A=MINUS)
    assert (exact.total, exact.in_A) == (floaty.total, floaty.in_A)


def test_approximates_vs_region_count_differ_by_q1():
    b = biased_number()
    n_approx = count_approximates(b, 72, C=1).total
    n_region = count_region(lattice_from_x(float(b)), RegionSpec("P", 1, T=72, c=1, norm="sup")).total
    q1_solutions = count_approximates(b, 1, C=1).total
    assert n_approx - n_region == q1_solutions == 2


def test_degenerate_rational_direction_raises():
    with pytest.raises(DegenerateRational, match="at q = 2 with"):
        count_approximates(0.5, 10, A=MINUS)
    res = count_approximates(0.5, 10)
    assert res.degenerate > 0


def test_count_approximates_d2():
    res = count_approximates(np.array([0.3137515, 0.7390812]), 2000, norm="euclidean",
                             C=1.0, A=Hemisphere((1.0, 0.0)))
    comp = count_approximates(np.array([0.3137515, 0.7390812]), 2000, norm="euclidean",
                              C=1.0, A=Hemisphere((-1.0, 0.0)))
    assert res.total == comp.total
    assert res.in_A + comp.in_A == res.total  # partition up to the seam (measure zero)


def test_count_approximates_rejects_direction_set_of_another_dimension():
    for x, A in ((np.array([0.3137515, 0.7390812]), MINUS), (0.7317381, Hemisphere((1.0, 0.0))),
                 (biased_number(), Hemisphere((1.0, 0.0)))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            count_approximates(x, 100, A=A)


# -- shells ---------------------------------------------------------------------

def test_shell_examples():
    assert shell_count(Z2, 2, c=1, norm="sup").total == 2  # (0, 3), (0, 4)
    total = sum(shell_count(Z2, i, c=1, norm="sup").total for i in (1, 2, 3))
    assert total == count_region(Z2, RegionSpec("P", 1, T=8, c=1, norm="sup")).total == 7


def test_shell_additivity_random_lattice():
    rng = np.random.default_rng(10)
    lat = lattice_from_x(float(rng.random()))
    N = 9
    total = sum(shell_count(lat, i, c=1, norm="sup").total for i in range(1, N + 1))
    assert total == count_region(lat, RegionSpec("P", 1, T=float(2**N), c=1, norm="sup")).total


def test_count_result_json():
    res = count_region(Z2, RegionSpec("P", 1, T=10, c=1, norm="sup", A=MINUS))
    obj = res.to_obj()
    assert obj == {"total": 9, "in_A": 0, "degenerate": 9}


# ---------------------------------------------------------------------------
# the batched float counter against one call a target

BATCH_SETS = {1: MINUS, 2: Hemisphere((1.0, 0.0)), 3: Cap((0.0, 0.6, 0.8), 1.0)}


@pytest.mark.parametrize("d, T", [(1, 10**5), (2, 10**4), (3, 2000)])
@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("C", [1.0, 2.5])
@pytest.mark.parametrize("with_A", [False, True])
def test_batched_counts_equal_single_calls(d, T, norm, C, with_A):
    A = BATCH_SETS[d] if with_A else None
    xs = np.random.default_rng(100 * d + 7).random((12, d))
    got = count_approximates_many(xs, T, norm=norm, C=C, A=A, want_witnesses=True)
    want = [count_approximates(x, T, norm=norm, C=C, A=A, want_witnesses=True) for x in xs]
    assert [r.to_obj() for r in got] == [r.to_obj() for r in want]
    # witnesses are only built on request
    assert [r.witnesses for r in count_approximates_many(xs, T, norm=norm, C=C, A=A)] == [None] * 12


@pytest.mark.parametrize("rational", [(0.5,), (0.5, 0.25)])
def test_batched_rational_target_is_flagged_and_its_neighbours_counted(rational):
    d = len(rational)
    A = BATCH_SETS[d]
    xs = np.random.default_rng(3).random((5, d))
    xs[2] = rational
    got = count_approximates_many(xs, 1000, A=A)
    assert got[2].degenerate > 0
    with pytest.raises(DegenerateRational):
        count_approximates(xs[2], 1000, A=A)
    for i in (0, 1, 3, 4):
        assert got[i].to_obj() == count_approximates(xs[i], 1000, A=A).to_obj()
        assert got[i].degenerate == 0


def test_thm1_skips_a_rational_target(monkeypatch):
    from latdir.experiments import direction_frequency_experiment

    xs = np.random.default_rng(3).random((4, 1))
    xs[1] = 0.5

    class FixedTargets:
        def __init__(self, seed):
            pass

        def random(self, shape):
            assert shape == xs.shape
            return xs.copy()

    monkeypatch.setattr(np.random, "default_rng", FixedTargets)
    rep = direction_frequency_experiment(1, 4, 1000, MINUS)
    assert rep.records[1] == {"x": [0.5], "skipped": True}
    assert all("ratio" in rec for i, rec in enumerate(rep.records) if i != 1)
    assert (rep.summary["used"], rep.summary["skipped"]) == (3, 1)


def test_batched_budget_is_checked_before_any_candidate(monkeypatch):
    # x = 0 has a short vector in every shell, so its boxes are far larger
    # than those of its irrational neighbours
    xs = np.array([[0.3137515], [0.0], [0.7390812]])
    monkeypatch.setenv("LATDIR_BUDGET", "1000")
    assert len(count_approximates_many(xs[[0, 2]], 10**5)) == 2

    def expanded(*args):
        raise AssertionError("a candidate was expanded")

    monkeypatch.setattr(lm, "_points", expanded)
    with pytest.raises(CandidateBudgetExceeded):
        count_approximates_many(xs, 10**5)


def test_batched_counter_rejects_a_direction_set_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        count_approximates_many(np.full((3, 2), 0.3137515), 100, A=MINUS)
    with pytest.raises(ValueError, match="dimension mismatch"):
        count_approximates_many(np.full((3, 1), 0.3137515), 100, A=Hemisphere((1.0, 0.0)))

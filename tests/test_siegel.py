import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latdir import siegel as sg
from latdir.contfrac import biased_number
from latdir.lattice import (Lattice, RegionSpec, count_region, g_flow, lattice_from_x,
                            region_volume)
from latdir.siegel import (BoxIndicator, MCEstimate, RadialIndicator,
                           RegionIndicator, ZeroDenominator,
                           haar_rotation, haar_rotations, siegel_transform,
                           spherical_average, spherical_averages, thm3_ratio)
from latdir.sphere import Complement, Hemisphere, SignSet, full_sphere

Z2 = Lattice(np.eye(2))
Z3 = Lattice(np.eye(3))


# -- test functions -----------------------------------------------------------

def test_box_indicator_transform():
    assert siegel_transform(BoxIndicator((-1.5, -1.5), (1.5, 1.5)), Z2) == 8
    assert siegel_transform(BoxIndicator((-2.5, -2.5), (2.5, 2.5)), Z2) == 24
    # Z^1: the points +-1 and +-2
    assert siegel_transform(BoxIndicator((-2.5,), (2.5,)), Lattice(np.array([[1.0]]))) == 4


def test_region_indicator_integral_matches_volume():
    spec = RegionSpec("R", 2, T=1.0, c=1.0, eps=0.1, A=Hemisphere((1.0, 0.0)))
    ind = RegionIndicator(spec)
    assert ind.integral() == region_volume(spec)
    with pytest.raises(ValueError):
        RegionIndicator(RegionSpec("P", 1, T=2.0))
    with pytest.raises(ValueError):
        RegionIndicator(RegionSpec("R", 1, T=2.0, eps=0.5))


@pytest.mark.parametrize("c", [0.09000000000000001, 0.09000000000000002])
def test_region_indicator_agrees_with_count_region_on_a_grazing_point(c):
    # the point 3 fl(0.1) (1, 1) lies within rounding of ||v_1|| |v_2| = c, and
    # exactly 9 fl(0.1)^2 <= c; at the smaller c the float test alone says no
    lat = Lattice(np.array([[10.0, 0.1], [0.0, 0.1]]), check=False)
    spec = RegionSpec("R", 1, T=1.0, c=c, eps=0.1)
    assert siegel_transform(RegionIndicator(spec), lat) == count_region(lat, spec).total == 3


def test_padded_box_keeps_a_point_on_the_corner_of_the_region():
    # n = (5, 1) is exactly (2, 1/2), on |v_1| v_2 = c and on the corner of the
    # region's box, but its float v_1 rounds above 2: only the box pad lets it
    # reach the exact recheck
    p, q = 0.8872418141008054, -2.436209070504027
    lat = Lattice(np.array([[p, q], [0.0, 0.5]]), check=False)
    spec = RegionSpec("R", 1, T=1.0, c=1.0, eps=0.5)
    exact = sum(abs(n1 * Fraction(p) + n2 * Fraction(q)) * Fraction(n2, 2) <= 1
                for n1 in range(-20, 21) for n2 in (1, 2))
    assert exact == 7
    assert siegel_transform(RegionIndicator(spec), lat) == count_region(lat, spec).total == 7


def test_region_indicator_rechecks_each_grazer_on_its_own_basis():
    # n = (1, 1) on a stack of two bases: 2^-39 beyond |v_1| |v_2| = 1 on
    # basis 0, exactly on it on basis 1
    bases = np.array([np.diag([2.0, 0.5 + 2.0**-40]), np.diag([2.0, 0.5])])
    f = RegionIndicator(RegionSpec("R", 1, T=1.0, c=1.0, eps=0.1))
    points = np.array([[2.0, 0.5 + 2.0**-40], [2.0, 0.5]])
    values = f.evaluate(points, np.ones((2, 2), np.int64), bases, np.array([0, 1]))
    assert values.tolist() == [0.0, 1.0]


def test_radial_indicator():
    f = RadialIndicator(0.5, 1.5, 2)
    assert f.integral() == pytest.approx(math.pi * (1.5**2 - 0.5**2))
    assert siegel_transform(f, Z2) == 8  # 4 at radius 1, 4 at sqrt(2)
    assert siegel_transform(RadialIndicator(0.5, 1.2, 2), Z2) == 4
    with pytest.raises(ValueError):
        RadialIndicator(2.0, 1.0, 2)


def test_monotone_in_f():
    small = BoxIndicator((-1.2, -1.2), (1.2, 1.2))
    big = BoxIndicator((-2.2, -2.2), (2.2, 2.2))
    rng = np.random.default_rng(0)
    for i in range(10):
        k = haar_rotation(2, np.random.default_rng([9, i]))
        lat = Lattice(k @ Z2.basis, check=False)
        assert siegel_transform(small, lat) <= siegel_transform(big, lat)


def test_radial_rotation_invariance():
    f = RadialIndicator(0.4, 2.3, 3)
    base = siegel_transform(f, Z3)
    for i in range(10):
        k = haar_rotation(3, np.random.default_rng([31, i]))
        assert siegel_transform(f, Lattice(k @ np.eye(3), check=False)) == base


# -- Haar sampler ---------------------------------------------------------------

def test_haar_rotation_orthogonality_and_det():
    for n in (2, 3, 4):
        for i in range(50):
            K = haar_rotation(n, np.random.default_rng([4, n, i]))
            assert np.max(np.abs(K.T @ K - np.eye(n))) <= 1e-10
            assert abs(np.linalg.det(K) - 1.0) <= 1e-10
    with pytest.raises(ValueError):
        haar_rotation(1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        haar_rotations(0, [np.random.default_rng(0)])


def _loop_rotation(n, rng):
    """The one-matrix draw, QR, sign fix and det of one sample at a time."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.sign(np.diag(R))
    s[s == 0.0] = 1.0
    Q = Q * s[None, :]
    if np.linalg.det(Q) < 0:
        Q[:, -1] = -Q[:, -1]
    return Q


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_draw_is_the_one_sample_draw(n):
    for seed in (0, 11):
        stacked = haar_rotations(n, (np.random.default_rng([seed, i]) for i in range(500)))
        assert stacked.shape == (500, n, n)
        for draw in (haar_rotation, _loop_rotation):
            one = np.stack([draw(n, np.random.default_rng([seed, i])) for i in range(500)])
            assert stacked.tobytes() == one.tobytes()


# edges of numpy's split of a seed entry into 32-bit words: 0 and 2^32 - 1 are one word, 2^32 and 2^40 + 7 two
WORD_EDGES = [0, 2**32 - 1, 2**32, 2**40 + 7]


@given(st.lists(st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**100)), max_size=5),
       st.integers(0, 40))
@example([0], 0)
@example([2**32 - 1], 0)
@example([2**32], 3)
@example([2**40 + 7], 7)
@example([17, 3], 0)  # [seed, n], as criterion 10 draws
@settings(max_examples=60, deadline=None)
def test_rng_streams_are_the_default_rng_streams(prefix, i):
    gen = sg.rng_streams(prefix, i + 1)[i]
    ref = np.random.default_rng([*prefix, i])
    assert gen.bit_generator.state == ref.bit_generator.state
    assert gen.standard_normal((4, 4)).tobytes() == ref.standard_normal((4, 4)).tobytes()


@pytest.mark.parametrize("prefix", [[3], [17, 3]])
def test_rng_streams_draw_every_sample_as_its_own_stream(prefix):
    M = 300
    Ks = haar_rotations(3, sg.rng_streams(prefix, M))
    one = haar_rotations(3, (np.random.default_rng([*prefix, i]) for i in range(M)))
    assert Ks.tobytes() == one.tobytes()


@pytest.mark.parametrize("prefix", [[-1], [4, -2]])
def test_rng_streams_reject_negative_entries(prefix):
    with pytest.raises(ValueError, match="non-negative"):
        sg.rng_streams(prefix, 3)


class _Fixed:
    """A generator stand-in whose standard normal draw is a given matrix."""

    def __init__(self, G):
        self.G = np.array(G, dtype=float)

    def standard_normal(self, shape):
        assert shape == self.G.shape
        return self.G.copy()


# crafted normal matrices -> the rotation they must give: the det = -1 coset
# (the last column is negated) and a zero R-diagonal entry (its sign is +1)
CRAFTED = [
    ([[1.0, 0.0], [0.0, -1.0]], np.eye(2)),
    ([[2.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, 5.0]], np.diag([1.0, -1.0, -1.0])),
    ([[1.0, 1.0], [0.0, 0.0]], np.eye(2)),
    ([[-1.0, 1.0], [0.0, 0.0]], -np.eye(2)),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], np.eye(3)),
    ([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]], np.diag([1.0, -1.0, -1.0])),
]


@pytest.mark.parametrize("G, expected", CRAFTED)
def test_crafted_normals_hit_the_sign_rules(G, expected):
    n = len(G)
    K = haar_rotation(n, _Fixed(G))
    assert np.array_equal(K, expected)
    # in a stack among random draws, each rotation is still its own draw
    rngs = [np.random.default_rng([5, 0]), _Fixed(G), np.random.default_rng([5, 1]), _Fixed(G)]
    Ks = haar_rotations(n, rngs)
    assert np.array_equal(Ks[1], expected) and np.array_equal(Ks[3], expected)
    for i in (0, 2):
        assert Ks[i].tobytes() == haar_rotation(n, np.random.default_rng([5, i // 2])).tobytes()


@pytest.mark.parametrize("t", [0.0, 6.0, 8.0])
@pytest.mark.parametrize("x", [(0.3183098861837907,), (0.3, 0.7)])
def test_flowed_bases_are_the_per_sample_products(t, x):
    lat = lattice_from_x(x)
    assert not np.array_equal(lat.basis, np.eye(lat.dim))
    M, seed = 16, 4
    g = g_flow(t, lat.dim - 1)
    expected = np.stack([g @ haar_rotation(lat.dim, np.random.default_rng([seed, i])) @ lat.basis
                         for i in range(M)])
    seen = []

    class Recorder(BoxIndicator):
        def evaluate(self, points, coords=None, bases=None, which=None):
            seen.append(bases)
            return super().evaluate(points, coords, bases, which)

    spherical_averages([Recorder((-2.0,) * lat.dim, (2.0,) * lat.dim)], lat, t, M, seed)
    assert seen and all(bases.tobytes() == expected.tobytes() for bases in seen)


def test_haar_first_column_statistics():
    M = 3000
    n = 3
    cols = np.array([haar_rotation(n, np.random.default_rng([8, i]))[:, 0] for i in range(M)])
    assert np.all(np.abs(cols.mean(axis=0)) <= 4 / math.sqrt(M))
    # invariance: K @ u for fixed u matches the first-column distribution
    u = np.array([0.6, 0.0, 0.8])
    rotated = np.array([haar_rotation(n, np.random.default_rng([9, i])) @ u for i in range(M)])
    for series in (cols[:, 0], rotated[:, 0]):
        assert abs(series.mean()) <= 4 / math.sqrt(M)
        assert abs((series**2).mean() - 1.0 / n) <= 4 / math.sqrt(M)


# -- spherical averages -----------------------------------------------------------

def test_spherical_average_t0_radial_zero_variance():
    est = spherical_average(RadialIndicator(0.5, 1.5, 2), Z2, t=0.0, M=12, seed=5)
    assert est.mean == 8.0 and est.stderr == 0.0
    assert est.integral_reference == pytest.approx(math.pi * 2.0)


def test_spherical_average_seed_determinism():
    f = BoxIndicator((-1.1, -1.1, -1.1), (1.1, 1.1, 1.1))
    a = spherical_average(f, Z3, t=0.7, M=40, seed=11, keep_trace=True)
    b = spherical_average(f, Z3, t=0.7, M=40, seed=11, keep_trace=True)
    assert a.values == b.values and a.mean == b.mean and a.stderr == b.stderr
    c = spherical_average(f, Z3, t=0.7, M=40, seed=12)
    assert c.mean != a.mean  # different stream


def test_spherical_average_converges_to_integral_d1():
    f = BoxIndicator((-0.8, 0.2), (0.8, 1.0))
    est = spherical_average(f, Z2, t=5.0, M=600, seed=13)
    assert abs(est.mean - f.integral()) <= 3 * est.stderr + 0.05 * f.integral()


def test_mc_estimate_validation():
    f = RadialIndicator(0.1, 0.5, 2)
    for M in (0, 1, -1):
        with pytest.raises(ValueError, match="at least 2 samples"):
            spherical_average(f, Z2, t=0.0, M=M, seed=0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            spherical_averages([f, f], Z2, t=0.0, M=M, seed=0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            thm3_ratio(Z2, SignSet(frozenset({-1})), eps=0.1, t=2.0, M=M, seed=0)


@pytest.mark.parametrize("fs", [[], [RadialIndicator(0.1, 0.5, 3)],
                                [BoxIndicator((0.0, 0.0), (1.0, 1.0)), RadialIndicator(0.1, 0.5, 3)]])
def test_spherical_averages_reject_before_drawing(monkeypatch, fs):
    def no_draw(*args):
        raise AssertionError("a rotation was drawn")
    monkeypatch.setattr(sg, "rng_streams", no_draw)
    with pytest.raises(ValueError, match="test functions of the lattice's dimension"):
        spherical_averages(fs, Z2, t=1.0, M=8, seed=0)


@pytest.mark.parametrize("t", [0.0, 2.0, 5.0])
def test_mirrored_box_has_the_same_trace(t):
    # v -> -v maps every lattice onto itself, so f(v) and f(-v) sum alike
    lo, hi = (-0.3, 0.2, 0.1), (0.9, 1.1, 0.8)
    box, mirror = BoxIndicator(lo, hi), BoxIndicator(tuple(-v for v in hi), tuple(-v for v in lo))
    a, b = spherical_averages([box, mirror], Z3, t, 300, 5, keep_trace=True)
    assert a.values == b.values and a.mean == b.mean
    assert sum(a.values) > 0


def _region(d, eps=0.1):
    A = SignSet(frozenset({-1})) if d == 1 else Hemisphere((1.0,) + (0.0,) * (d - 1))
    return RegionIndicator(RegionSpec("R", d, T=1.0, c=1.0, eps=eps, A=A))


@pytest.mark.parametrize("fs, t", [
    ([_region(1), BoxIndicator((-0.7, 0.2), (0.7, 0.9))], 4.0),
    ([_region(2), BoxIndicator((-0.7, -0.7, 0.2), (0.7, 0.7, 0.9))], 3.0),
    ([RadialIndicator(0.2, 1.5, 3), BoxIndicator((-0.5, -0.5, 0.1), (0.5, 0.5, 0.6))], 2.0),
])
def test_each_function_of_a_pass_reads_its_own_pass(fs, t):
    lat = Lattice(np.eye(fs[0].dim))
    joint = spherical_averages(fs, lat, t, 200, 7, keep_trace=True)
    for f, est in zip(fs, joint):
        alone = spherical_average(f, lat, t, 200, 7, keep_trace=True)
        assert est.values == alone.values and est.to_obj() == alone.to_obj()
    assert sum(joint[1].values) > 0


# -- paired ratio -----------------------------------------------------------------

def test_ratio_full_sphere_is_one():
    r = thm3_ratio(Z3, full_sphere(2), eps=0.2, t=2.0, M=40, seed=1)
    assert r.ratio == 1.0 and r.stderr == 0.0


def test_ratio_complement_partition_exact():
    A = Hemisphere((0.0, 1.0))
    ra = thm3_ratio(Z3, A, eps=0.15, t=3.0, M=60, seed=21, keep_trace=True)
    rc = thm3_ratio(Z3, Complement(A), eps=0.15, t=3.0, M=60, seed=21, keep_trace=True)
    # same rotation samples: per-sample counts partition the denominator
    # up to directions exactly on the seam (probability zero)
    num_sum = np.array(ra.numerator.values) + np.array(rc.numerator.values)
    assert np.array_equal(num_sum, np.array(ra.denominator.values))
    assert ra.ratio + rc.ratio == pytest.approx(1.0, abs=1e-12)


def test_ratio_d1_sign_sets():
    r = thm3_ratio(Z2, SignSet(frozenset({-1})), eps=0.1, t=5.0, M=400, seed=6)
    assert abs(r.ratio - 0.5) <= 4 * max(r.stderr, 1e-3)
    assert r.vol_reference == 0.5


@pytest.mark.parametrize("M", [0, 1])
def test_thm3_ratio_needs_two_samples(M):
    with pytest.raises(ValueError, match="at least 2 samples"):
        thm3_ratio(Z2, SignSet(frozenset({-1})), eps=0.1, t=2.0, M=M, seed=0)


def test_ratio_zero_denominator():
    with pytest.raises(ZeroDenominator):
        thm3_ratio(Z2, SignSet(frozenset({-1})), eps=0.97, t=0.05, M=4, seed=0)
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError):
            thm3_ratio(Z2, SignSet(frozenset({-1})), eps=eps, t=1.0, M=4, seed=0)


def _flowed(lat, t, M, seed):
    """Each sample's own flowed lattice g_t k_i Lambda, one at a time."""
    g = g_flow(t, lat.dim - 1)
    return [Lattice(g @ haar_rotation(lat.dim, np.random.default_rng([seed, i])) @ lat.basis,
                    check=False)
            for i in range(M)]


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**16), t=st.floats(0.0, 7.0),
       eps=st.sampled_from([0.05, 0.1, 0.3, 0.97]))
@example(d=1, seed=0, t=0.05, eps=0.97)  # no sample has a point in the region
@example(d=1, seed=18, t=2.0, eps=0.97)  # every f is 0 on the last sample, not on all
def test_thm3_counts_are_region_counts(d, seed, t, eps):
    A = SignSet(frozenset({-1})) if d == 1 else Hemisphere((1.0,) + (0.0,) * (d - 1))
    lat = Lattice(np.eye(d + 1))
    spec = RegionSpec("R", d, T=1.0, eps=eps, A=A)
    moved = _flowed(lat, t, 4, seed)
    counts = [count_region(m, spec) for m in moved]
    try:
        r = thm3_ratio(lat, A, eps=eps, t=t, M=4, seed=seed, keep_trace=True)
        assert r.numerator.values == [res.in_A for res in counts]
        assert r.denominator.values == [res.total for res in counts]
    except ZeroDenominator:
        assert all(res.total == 0 for res in counts)
    fs = [RegionIndicator(spec), RegionIndicator(replace(spec, A=None)),
          BoxIndicator((-0.5,) * d + (eps,), (0.5,) * d + (1.0,)),
          RadialIndicator(eps, 1.0, d + 1)]
    for f in fs:
        est = spherical_average(f, lat, t, 4, seed, keep_trace=True)
        assert est.values == [siegel_transform(f, m) for m in moved]
    assert [siegel_transform(fs[0], m) for m in moved] == [res.in_A for res in counts]
    assert [siegel_transform(fs[1], m) for m in moved] == [res.total for res in counts]


# -- every unimodular lattice, not only Z^{d+1} -------------------------------------

@pytest.mark.parametrize("t, ratio, stderr", [(3.0, 0.4916, 0.0076), (6.0, 0.5058, 0.0106)])
def test_thm3_equidistributes_on_the_biased_horospherical_lattice(t, ratio, stderr):
    r = thm3_ratio(lattice_from_x(biased_number()), SignSet(frozenset({-1})),
                   eps=0.1, t=t, M=2000, seed=3)
    assert (round(r.ratio, 4), round(r.stderr, 4)) == (ratio, stderr)
    assert abs(r.ratio - r.vol_reference) <= 3 * r.stderr


def test_thm3_equidistributes_on_a_random_unimodular_lattice():
    B = np.random.default_rng(2013).standard_normal((3, 3))
    B[:, 0] *= np.sign(np.linalg.det(B))
    B /= np.linalg.det(B) ** (1.0 / 3.0)
    r = thm3_ratio(Lattice(B), Hemisphere((1.0, 0.0)), eps=0.1, t=6.0, M=2000, seed=3)
    assert abs(r.ratio - r.vol_reference) <= 3 * r.stderr


@pytest.mark.parametrize("d, A, budget", [(1, SignSet(frozenset({-1})), 200),
                                         (2, Hemisphere((1.0, 0.0)), 650)])
def test_thm3_boxes_fit_a_budget_only_the_box_metric_reduction_meets(d, A, budget):
    # thm3's flowed bases at t = 6 (M = 500, seed 3): the largest per-sample
    # integer box holds 121 (d = 1) and 442 (d = 2) candidates when each basis
    # is reduced in its box's metric, 324 and 896 when it is reduced as it is
    r = thm3_ratio(Lattice(np.eye(d + 1)), A, eps=0.1, t=6.0, M=500, seed=3, budget=budget)
    assert r.denominator.mean > 0


def test_mc_estimate_json():
    est = MCEstimate(1.0, 0.1, 10, 2.0, 7, integral_reference=0.9)
    obj = est.to_obj()
    assert obj["mean"] == 1.0 and obj["seed"] == 7 and "values" not in obj

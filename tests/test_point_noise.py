"""No pinned count rests on the last bits of the float points.

`lattice._points` forms each point as a fixed-order float sum; another
summation order, another BLAS kernel or a fused multiply-add would round it
differently.  Here every point `_points` returns is moved by up to 2^10
seeded random ulps per coordinate, and the digests of the enumeration and
counting regression grids must still hold.
"""

import numpy as np
import pytest
import test_counting_regression as counting
import test_enumeration_regression as enumeration

from latdir import lattice as lm

ULPS = 2**10


@pytest.fixture
def noisy_points(monkeypatch):
    """Wrap `_points` so that each call adds up to ULPS random ulps to every coordinate."""
    points = lm._points
    rng = np.random.default_rng(1024)
    moved = [0]

    def noisy(nf, Bs, k):
        pts = points(nf, Bs, k)
        shift = rng.integers(-ULPS, ULPS, size=pts.shape, endpoint=True)
        moved[0] += int(np.count_nonzero(shift))
        return pts + shift * np.spacing(np.abs(pts))

    monkeypatch.setattr(lm, "_points", noisy)
    return moved


@pytest.mark.parametrize("key", sorted(enumeration.PINNED), ids=lambda k: "d{}-t{:g}-seed{}".format(*k))
def test_enumeration_digests_hold_under_point_noise(noisy_points, key):
    assert (enumeration.enumeration_digest(*key), enumeration.thm3_digest(*key)) == enumeration.PINNED[key]
    assert noisy_points[0]


@pytest.mark.parametrize("key", sorted(counting.PINNED_APPROX), ids=lambda k: "d{}-T{:g}-{}-C{:g}".format(*k))
def test_approximate_digests_hold_under_point_noise(noisy_points, key):
    assert counting.approx_digest(*key) == counting.PINNED_APPROX[key]
    assert noisy_points[0]


@pytest.mark.parametrize("key", sorted(counting.PINNED_REGION), ids=lambda k: "d{}-{}-{}".format(
    k[0], k[1], "A" if k[2] else "noA"))
def test_region_digests_hold_under_point_noise(noisy_points, key):
    assert counting.region_digest(*key) == counting.PINNED_REGION[key]
    assert noisy_points[0]

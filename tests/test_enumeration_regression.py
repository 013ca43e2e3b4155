"""Pinned enumeration results on flowed Haar-rotated lattices.

The digests were recorded with the Fourier-Motzkin enumerator that basis
reduction replaced; the reduce-then-box enumerator must return the same
integer coordinates and the same per-sample thm3 counts on this grid.
"""

import hashlib
import json

import numpy as np
import pytest

from latdir.lattice import Lattice, RegionSpec, enumerate_in_box, g_flow
from latdir.siegel import haar_rotation, thm3_ratio
from latdir.sphere import Hemisphere, SignSet

SAMPLES = 32
EPS = 0.1
DIRECTIONS = {1: SignSet(frozenset({-1})), 2: Hemisphere((1.0, 0.0))}

# (d, t, seed) -> (sha256 of the sorted integer coordinates per sample,
#                  sha256 of the thm3 numerator and denominator count lists)
PINNED = {
    (1, 6.0, 0): ("239be71ad5486456217a93a043d71ae20cd5cccec0181b2e1a1461195b28102e",
                "9040455d9fe9ab52bde7eeaab7f56315574bd0226fa25cc19847ed67b061da36"),
    (1, 6.0, 1): ("7263c50fbecc7ae16a3aa2a273ce2fdee7067051ae7857ffc1c1aaf8009c0463",
                "0a8eef06070c56421a929594996895c8024299c8200b71a00b5bbfa32fb4d2c7"),
    (1, 8.0, 0): ("e52f446397327e990b451a3af7da461b1f8cb24435e327d82128660c5bc7fc0d",
                "eeb46bf9669eec92fa3fb38d2df953da3ae92110121ec44b4c2c377a2cc693aa"),
    (1, 8.0, 1): ("df3992b9c5e606d56a50d1946afa45b1d94a7cf57c5830b999191700cb745aee",
                "df0a95355beb523a8fc00ef94363fdf021d1be27c9589b60393ded106a5be8f8"),
    (2, 6.0, 0): ("f8c68f85a9acca9c68af466e4c947615897623bfe2faabebe9b5930802f1bca0",
                "21839cc72c94897bd135a231ef59f32329dc46a3dac932560cd37c179f00ffd1"),
    (2, 6.0, 1): ("5be525f766242d863ad5112f9a267699a6277818f252c80dfae03c648c8a4b1e",
                "26744e84a23905ef00e095ee8cbf3eed4397540f1e0ada7aa475a42caee14a6a"),
    (2, 8.0, 0): ("b68b90e2a7f40f9fc771dab817daf0dbd529d542f90f5d781cad0a5a1bae28d9",
                "f92bf30a076355992a8396d8dbc31034596a1de167946aed2fcee339e88fe570"),
    (2, 8.0, 1): ("7b7c0e3b15ed6782113103a793cdf43e3d11766bf804e384659b300e92a23137",
                "c4e93ee05b798c68e96bf254157abceb8ee7036d7b18c1edda95645dcc0e9651"),
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def enumeration_digest(d: int, t: float, seed: int) -> str:
    lo, hi = RegionSpec("R", d, T=1.0, c=1.0, eps=EPS).bounding_box()
    pad = 1e-9 * (np.abs(lo) + np.abs(hi) + 1.0)
    g = g_flow(t, d)
    per_sample = []
    for i in range(SAMPLES):
        k = haar_rotation(d + 1, np.random.default_rng([seed, i]))
        moved = Lattice(g @ k @ np.eye(d + 1), check=False)
        _, ns = enumerate_in_box(moved, lo - pad, hi + pad)
        per_sample.append(sorted(map(tuple, ns.tolist())))
    return _digest(per_sample)


def thm3_digest(d: int, t: float, seed: int) -> str:
    r = thm3_ratio(Lattice(np.eye(d + 1)), DIRECTIONS[d], EPS, t, SAMPLES, seed, keep_trace=True)
    return _digest([r.numerator.values, r.denominator.values])


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "d{}-t{:g}-seed{}".format(*k))
def test_pinned_enumeration_digests(key):
    assert (enumeration_digest(*key), thm3_digest(*key)) == PINNED[key]

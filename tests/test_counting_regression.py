"""Pinned float approximate counts and horospherical region counts.

The digests were recorded with the per-q array generators that shell
enumeration replaced; every count, witness list and direction split must stay
byte-identical on this grid.
"""

import hashlib
import json

import numpy as np
import pytest

from latdir.lattice import RegionSpec, count_approximates, count_region, lattice_from_x
from latdir.sphere import Hemisphere, SignSet

APPROX_TARGETS = 20
REGION_TARGETS = 8
REGION_T = 1000.0
DIRECTIONS = {1: SignSet(frozenset({-1})), 2: Hemisphere((1.0, 0.0)),
              3: Hemisphere((1.0, 0.0, 0.0))}

# (d, T, norm, C) -> sha256 of count_approximates(..., want_witnesses=True).to_obj()
# over the seeded targets
PINNED_APPROX = {
    (1, 1000.0, 'sup', 1.0): 'd4c3d05e957a692d302b1bdf17092cdf15d06e4a9c2dfc102ae63c17964f2109',
    (1, 1000.0, 'sup', 2.5): 'b439e82a39c5ae80d3b692c8836b7acff103d30d4bf83c471df814c1b9f8637a',
    (1, 1000.0, 'euclidean', 1.0): 'd4c3d05e957a692d302b1bdf17092cdf15d06e4a9c2dfc102ae63c17964f2109',
    (1, 1000.0, 'euclidean', 2.5): 'b439e82a39c5ae80d3b692c8836b7acff103d30d4bf83c471df814c1b9f8637a',
    (1, 10000.0, 'sup', 1.0): 'e81c168a77990d2883a51cddf0199e50b1a2dc1a458143483c223eeef384d09d',
    (1, 10000.0, 'sup', 2.5): '9c0f4026b877d2a7ce96ad39f5dd3e3cbcd9b5ed201f6e7107b550c8b3ac3b1a',
    (1, 10000.0, 'euclidean', 1.0): 'e81c168a77990d2883a51cddf0199e50b1a2dc1a458143483c223eeef384d09d',
    (1, 10000.0, 'euclidean', 2.5): '9c0f4026b877d2a7ce96ad39f5dd3e3cbcd9b5ed201f6e7107b550c8b3ac3b1a',
    (1, 100000.0, 'sup', 1.0): '86fd0d1d3efe836788875ee78ec10ee3439dcd5847d1a64d11694367e625c2f5',
    (1, 100000.0, 'sup', 2.5): '1ff9e011c898b0530fa4263ce359cbdf9e52ac2ca13866352260d5ce0aedc0cd',
    (1, 100000.0, 'euclidean', 1.0): '86fd0d1d3efe836788875ee78ec10ee3439dcd5847d1a64d11694367e625c2f5',
    (1, 100000.0, 'euclidean', 2.5): '1ff9e011c898b0530fa4263ce359cbdf9e52ac2ca13866352260d5ce0aedc0cd',
    (2, 1000.0, 'sup', 1.0): 'fe120247e1a74dd9bfbdd00ebabcaaff78b510693d258f5b22410bf2c29e98b3',
    (2, 1000.0, 'sup', 2.5): '44cfcf2b5f884d17a1f941cb5fd3ce985f87d4b68e649d7ca2674efc9f03c093',
    (2, 1000.0, 'euclidean', 1.0): '131a4948e8d5577f7d86c4916cfaf66fe9ec774114eb346ac0823ae7a75d55f2',
    (2, 1000.0, 'euclidean', 2.5): '11bab289759d1d92b358eb81e5149c2a5b106511063c8d633c4fdacb033a4a94',
    (2, 10000.0, 'sup', 1.0): '187b43e5356aa51235d7e693f4de522b2906a2fab568e973640db120fe325e3b',
    (2, 10000.0, 'sup', 2.5): '3e5e171254e6e7a978ac0352b9947a24ee9ea0422cae29bd9abe26ab1b3a59b8',
    (2, 10000.0, 'euclidean', 1.0): '394f683f31d3ecc60504ca607d451e7f326cc7f2b65e9a7a33887477172be0a8',
    (2, 10000.0, 'euclidean', 2.5): '23cceec26ae98c2aca1c33aec181da89bde8df11a2502e6b9926e76c1a2b9865',
    (2, 100000.0, 'sup', 1.0): '614f4b2044237b3131c043622e489dfcdfc93960a0c6a0bc20f781e91fa9fe71',
    (2, 100000.0, 'sup', 2.5): '365798cc9a053641146fa57b7c93d2a2fa57b3dd2f6fc950a2cbc934146d8b01',
    (2, 100000.0, 'euclidean', 1.0): '09564c8239ae3ed29359575b420e702dee9876c2a2a28081434e9c760dea3f91',
    (2, 100000.0, 'euclidean', 2.5): '31c499b7a90db84769d92bf63f9c80ec45768e0bfe1d34e99941ed26ba2b9cd6',
    (3, 1000.0, 'sup', 1.0): '40a894dce47f952a5630482c0b98661ac52c74c85f32d6d489612b88c16d08bc',
    (3, 1000.0, 'sup', 2.5): '2bdbe8fff51746d2549ef997bdbb326b2d4d0d33316d0140aac7db4101a404b9',
    (3, 1000.0, 'euclidean', 1.0): 'a2c160ef4d135027e9fa0bea96ac4a552ce08d8381a8c997ec8d27236e60f9eb',
    (3, 1000.0, 'euclidean', 2.5): 'b031296fbb0bed63ad35f2a5f40009164ade4f79c2f25ea29bafe1eb354d7225',
    (3, 10000.0, 'sup', 1.0): 'a0a69cd8aa2f9ed8074c188fffb88f0da9def1afa3f3f3b74c4038bde2817713',
    (3, 10000.0, 'sup', 2.5): '4b71893576d465cb3e465444744c249b9625f52cb2563085903691335b248465',
    (3, 10000.0, 'euclidean', 1.0): '94635d9c2c8c2b3ac3564cd956e52b4d0c85b12f2bd7f328deff36715c3e4a2b',
    (3, 10000.0, 'euclidean', 2.5): '49b563bc49ac4ce445d048821ccebb934a1e3478014e4fd9e3074cfd9743caa2',
}

# (d, kind, with direction set) -> sha256 of count_region(..., want_witnesses=True)
# over the seeded targets, both norms and c in {1, 2.5}.  The (1, 'Q') pins were
# re-recorded when empty counts began to carry an empty witness list instead of
# none; with the empty lists dropped, both hash to their first pins.
PINNED_REGION = {
    (1, 'P', False): '0f8ce79522a58b8d69b37bddefef041eb05402afe52ad4adc05e4bef63ebf3d4',
    (1, 'P', True): '41aa853191cb8f1bc562041b8a3ce8ff1159cb4ceba7816e9181cdcb4ff88b41',
    (1, 'Q', False): 'b4dc5917a4e3409dc91275d23eb0914a686d50357e6ba2a472299d68f743921e',
    (1, 'Q', True): '08ad19ca05a87731143532c1a8f5c08d18582af222949ffecf72a246a1d35940',
    (1, 'R', False): '89497630404acf90e17f11171528e8527928eeb4bc8d0e1c41b63f82bd0a94c7',
    (1, 'R', True): '7bf54b751850759d7d132c12823f5784b8e9ba6bf1cf80798f2febbf12ebdc56',
    (2, 'P', False): '989a59e580f11013a1ca56ca3bd8bd363e19bd7da421a1d1c5c9b02c40dccc12',
    (2, 'P', True): 'b968bb04f901f67ca7059d34c8ef4b6bfcdd43a4588ab041225346bb82d70e50',
    (2, 'Q', False): '67e709635382e6fde43ef9e00f6e3f0dfc811990627d4a0504e8af82f783780f',
    (2, 'Q', True): '7edcf2a5138dc30d524c94932a04ebad18649706dc795c6e2a219725080d713a',
    (2, 'R', False): '80e595a7a4150af55beb84281f1c0d9fe051675e7a02ed52e1dffec4ae689c1f',
    (2, 'R', True): '91ec8fdbec8e91b72021264a15e0abfd708f603635f8c7d0f233bc0be71e8f75',
    (3, 'P', False): 'afe768d4e60ebffd1e47ec8a563aa90157f670299c5758e79af7eaec525f0c87',
    (3, 'P', True): '847fec4ea4a861356e77e0f1dc34605ef56f5c5df6c512aa76a853d329f467e5',
    (3, 'Q', False): '357dc5a04abc3d836c92b87b70ab9420ff23564eb71ace4ed843f339f2e7e359',
    (3, 'Q', True): '611ed9767ced06fc4c77381fda766539bd72b253d4314fbe92b7f922f3f79752',
    (3, 'R', False): '06319c27a935e98950bf49b28c71374d57964bf30a65ed035bbdbdfd4b01460d',
    (3, 'R', True): 'e0f608c41f35cac173292e8b49a0d413c211da22b03d345bb9cf9aeac1d2b82d',
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _targets(d: int, n: int, seed: int):
    xs = np.random.default_rng(seed).random((n, d))
    return [float(x[0]) if d == 1 else x for x in xs]


def approx_digest(d: int, T: float, norm: str, C: float) -> str:
    objs = [count_approximates(x, T, norm=norm, C=C, A=DIRECTIONS[d], want_witnesses=True).to_obj()
            for x in _targets(d, APPROX_TARGETS, 100 + d)]
    return _digest(objs)


def region_digest(d: int, kind: str, with_A: bool) -> str:
    A = DIRECTIONS[d] if with_A else None
    objs = []
    for x in _targets(d, REGION_TARGETS, 200 + d):
        lat = lattice_from_x(x)
        for norm in ("sup", "euclidean"):
            for c in (1.0, 2.5):
                spec = RegionSpec(kind, d, T=REGION_T, c=c, eps=0.1 if kind == "R" else 0.0,
                                  norm=norm, A=A)
                objs.append(count_region(lat, spec, want_witnesses=True).to_obj())
    return _digest(objs)


@pytest.mark.parametrize("key", sorted(PINNED_APPROX), ids=lambda k: "d{}-T{:g}-{}-C{:g}".format(*k))
def test_pinned_approximate_digests(key):
    assert approx_digest(*key) == PINNED_APPROX[key]


@pytest.mark.parametrize("key", sorted(PINNED_REGION), ids=lambda k: "d{}-{}-{}".format(
    k[0], k[1], "A" if k[2] else "noA"))
def test_pinned_region_digests(key):
    assert region_digest(*key) == PINNED_REGION[key]


if __name__ == "__main__":  # prints the tables above from the current code
    for d, Ts in ((1, (1e3, 1e4, 1e5)), (2, (1e3, 1e4, 1e5)), (3, (1e3, 1e4))):
        for T in Ts:
            for norm in ("sup", "euclidean"):
                for C in (1.0, 2.5):
                    print(f"    ({d}, {T!r}, {norm!r}, {C!r}): {approx_digest(d, T, norm, C)!r},")
    for d in (1, 2, 3):
        for kind in ("P", "Q", "R"):
            for with_A in (False, True):
                print(f"    ({d}, {kind!r}, {with_A}): {region_digest(d, kind, with_A)!r},")

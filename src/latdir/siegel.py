"""Siegel transforms, Haar rotations, and spherical averages.

The estimator of interest is the rotation average of a Siegel transform,
(1/M) sum_i f^(g_t k_i Lambda) over Haar-random k_i in SO(d+1); as t grows
it converges to the plain Lebesgue integral of f.  Each sample has its own
RNG stream `default_rng([seed, i])`, built for all i at once by
`rng_streams`, and `haar_rotations` draws the M rotations in one stacked QR,
each with the bits of its own one-sample draw.  One driver flows them,
enumerates the hull of the test functions' support boxes in one chunked pass
of `lattice.enumerate_stacked` and sums each function per sample:
`spherical_averages` reads several functions off one pass, `spherical_average`
is its one-function call and `thm3_ratio` the paired read of the region
indicator with and without A.  The region indicator decides its points with
`lattice._classify` from their integer coordinates and bases, exact recheck
included.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .lattice import (Lattice, RegionSpec, _classify, enumerate_in_box,
                      enumerate_stacked, g_flow, pad_box, region_volume)
from .sphere import DirectionSet


class ZeroDenominator(RuntimeError):
    """The denominator estimate vanished (t or M too small for the region)."""


# ---------------------------------------------------------------------------
# test functions: bounded indicators of Jordan-measurable sets

class TestFunction:
    dim: int

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def integral(self) -> float:
        raise NotImplementedError

    def evaluate(self, points: np.ndarray, coords=None, bases=None, which=None) -> np.ndarray:
        """f at each point, given as `lattice._classify` takes them: `coords`
        are the integer coordinates on the (K, n, n) stack `bases` and `which`
        each point's index into it (all 0 when omitted).  They let an
        indicator re-decide boundary-grazing points exactly."""
        raise NotImplementedError


@dataclass(frozen=True)
class BoxIndicator(TestFunction):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("bad box")

    @property
    def dim(self):
        return len(self.lo)

    def support_box(self):
        return np.array(self.lo), np.array(self.hi)

    def integral(self) -> float:
        return float(np.prod(np.array(self.hi) - np.array(self.lo)))

    def evaluate(self, points, coords=None, bases=None, which=None):
        lo, hi = self.support_box()
        ok = np.all(points >= lo[None, :], axis=1) & np.all(points <= hi[None, :], axis=1)
        return ok.astype(float)


@dataclass(frozen=True)
class RadialIndicator(TestFunction):
    """Indicator of the closed euclidean annulus r_min <= ||v|| <= r_max."""

    r_min: float
    r_max: float
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.r_min <= self.r_max:
            raise ValueError("need 0 <= r_min <= r_max")

    def support_box(self):
        r = self.r_max
        return np.full(self.dim, -r), np.full(self.dim, r)

    def integral(self) -> float:
        from .sphere import ball_volume
        return ball_volume(self.dim, self.r_max) - ball_volume(self.dim, self.r_min)

    def evaluate(self, points, coords=None, bases=None, which=None):
        r = np.sqrt(np.sum(points * points, axis=1))
        return ((r >= self.r_min) & (r <= self.r_max)).astype(float)


@dataclass(frozen=True)
class RegionIndicator(TestFunction):
    """Indicator of a bounded thinning-region slice R_{A,eps} (kind R, T = 1).

    Points are decided by `lattice._classify`, the predicate `count_region`
    uses: with a direction set the indicator is its in-A mask, without one its
    region mask.  Given integer coordinates and a lattice, grazing points are
    re-decided exactly, so a Siegel transform of it equals the region count.
    """

    spec: RegionSpec

    def __post_init__(self):
        if self.spec.kind != "R" or self.spec.eps <= 0.0 or self.spec.T != 1.0:
            raise ValueError("RegionIndicator requires kind R, T = 1, eps > 0")

    @property
    def dim(self):
        return self.spec.d + 1

    def support_box(self):
        return self.spec.bounding_box()

    def integral(self) -> float:
        return region_volume(self.spec)

    def evaluate(self, points, coords=None, bases=None, which=None):
        ok, _, in_A = _classify(points, self.spec, coords, bases, which)
        return (ok if in_A is None else in_A).astype(float)


# ---------------------------------------------------------------------------
# transforms and sampling

def siegel_transform(f: TestFunction, lat: Lattice) -> float:
    """Sum of f over the nonzero lattice points."""
    pts, ns = enumerate_in_box(lat, *pad_box(*f.support_box()))
    if not len(pts):
        return 0.0
    return float(np.sum(f.evaluate(pts, ns, lat.basis[None])))


MASK32 = 0xFFFFFFFF


def _seed_hash(h: int, mult: int):
    """numpy's SeedSequence hash over uint32 arrays: each call xors with the
    running constant h, steps h to h * mult and multiplies by it."""
    def step(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))
    return step


def rng_streams(prefix, M: int) -> list:
    """The generators `np.random.default_rng([*prefix, i])` for i < M, bit
    for bit, for non-negative integers `prefix`.

    numpy's SeedSequence (a pool of 4 words, then `generate_state(4, uint64)`
    for PCG64) hashes the seed's 32-bit words with constants that do not
    depend on the data, so it runs here once over uint32 arrays, one lane a
    sample, and each sample's four state words seed its PCG64 directly.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its 4 uint64 words only

    entropy = []
    for v in prefix:  # each entry's 32-bit words, low first, as numpy splits it
        v = operator.index(v)
        if v < 0:
            raise ValueError(f"seed entries must be non-negative, got {v}")
        entropy.append(np.full(M, v & MASK32, dtype=np.uint32))
        while v := v >> 32:
            entropy.append(np.full(M, v & MASK32, dtype=np.uint32))
    entropy.append(np.arange(M, dtype=np.uint32))  # i < M < 2^32 is one word

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ (r >> np.uint32(16))

    hashmix = _seed_hash(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(M, dtype=np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _seed_hash(0x8B51F9DD, 0x58F38DED)
    state = np.stack([out(pool[k % 4]) for k in range(8)], axis=1)  # (M, 8) uint32
    return [Generator(PCG64(Words(w))) for w in state.view("<u8").astype(np.uint64)]


def haar_rotations(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Stack of Haar-distributed rotations in SO(n), the i-th drawn from the
    i-th generator of the iterable `rngs`.

    Mezzadri's recipe (Notices AMS 54, 2007), vectorised over the stack: QR
    of each standard normal matrix with the R-diagonal sign convention (a 0
    takes +1) gives Haar measure on O(n); negating the last column on the
    det = -1 coset maps it measure-preservingly onto SO(n).  The stacked QR
    and det act matrix by matrix, so each rotation depends on its own
    generator only and equals its one-sample `haar_rotation` bit for bit.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    Q, R = np.linalg.qr(np.stack([rng.standard_normal((n, n)) for rng in rngs]))
    s = np.sign(np.diagonal(R, axis1=1, axis2=2))
    s[s == 0.0] = 1.0
    Q = Q * s[:, None, :]
    Q[np.linalg.det(Q) < 0, :, -1] *= -1.0
    return Q


def haar_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation in SO(n) drawn from `rng`: the one-sample
    call of `haar_rotations`."""
    return haar_rotations(n, [rng])[0]


@dataclass
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    t: float
    seed: int
    integral_reference: float | None = None
    values: list | None = None

    def to_obj(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "samples": self.samples,
                "t": self.t, "seed": self.seed, "integral_reference": self.integral_reference}


def _sample_sums(fs: list, lat: Lattice, t: float, M: int, seed: int, budget=None,
                 values=None) -> np.ndarray:
    """(len(fs), M) sums of each f over the nonzero points of each flowed
    lattice g_t k_i Lambda, from one pass over the hull of the padded support
    boxes.  A point is n @ B.T on its own flowed basis whatever the box, so
    each f sees the bits of its own pass, and it is 0 off its own box.
    `values(points, coords, bases, which)` gives a block's rows of values,
    one an f; by default each f's own `evaluate`."""
    if M < 2:
        raise ValueError("need at least 2 samples")
    if not fs or any(f.dim != lat.dim for f in fs):
        raise ValueError("need one or more test functions of the lattice's dimension")
    if values is None:
        def values(*block):
            return [f.evaluate(*block) for f in fs]
    boxes = np.array([pad_box(*f.support_box()) for f in fs])  # (len(fs), 2, n)
    lo, hi = boxes[:, 0].min(axis=0), boxes[:, 1].max(axis=0)
    Ks = haar_rotations(lat.dim, rng_streams([seed], M))
    bases = g_flow(t, lat.dim - 1) @ Ks @ lat.basis
    sums = np.zeros((len(fs), M))
    for which, pts, ns in enumerate_stacked(bases, lo, hi, budget=budget):
        for row, vals in zip(sums, values(pts, ns, bases, which)):
            row += np.bincount(which, weights=vals, minlength=M)
    return sums


def _estimate(f: TestFunction, vals: np.ndarray, t: float, seed: int, keep_trace: bool) -> MCEstimate:
    M = len(vals)
    return MCEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(M)), M, t, seed,
                      f.integral(), vals.tolist() if keep_trace else None)


def spherical_averages(fs: list, lat: Lattice, t: float, M: int, seed: int,
                       *, keep_trace: bool = False) -> list[MCEstimate]:
    """Monte Carlo estimates of the K-averages of f^(g_t k Lambda), one per
    f of `fs`, from one pass: each rotation is drawn, flowed and reduced once.

    Each sample's sum of f is a bincount of the points' sample indices (a
    sample without points counts 0), equal to f's own one-function pass.  The
    points held at once are set by the enumeration chunk, not by M.  The cost
    stays flat in t until the condition number e^{(d+1)t} nears 1/machine
    epsilon and the rounding margin widens the box; a box past the candidate
    budget raises CandidateBudgetExceeded instead of silently truncating.
    """
    sums = _sample_sums(fs, lat, t, M, seed)
    return [_estimate(f, vals, t, seed, keep_trace) for f, vals in zip(fs, sums)]


def spherical_average(f: TestFunction, lat: Lattice, t: float, M: int, seed: int,
                      *, keep_trace: bool = False) -> MCEstimate:
    """The one-function call of `spherical_averages`."""
    return spherical_averages([f], lat, t, M, seed, keep_trace=keep_trace)[0]


@dataclass
class RatioEstimate:
    ratio: float
    stderr: float
    numerator: MCEstimate
    denominator: MCEstimate
    vol_reference: float

    def to_obj(self) -> dict:
        return {"ratio": self.ratio, "stderr": self.stderr,
                "numerator": self.numerator.to_obj(), "denominator": self.denominator.to_obj(),
                "vol_reference": self.vol_reference}


def thm3_ratio(lat: Lattice, A: DirectionSet, eps: float, t: float, M: int, seed: int,
               *, c: float = 0.0, budget: int | None = None,
               keep_trace: bool = False) -> RatioEstimate:
    """Paired estimate of the direction-restricted count fraction.

    Numerator and denominator are the averages of the region indicator with
    A and without it, read off one pass, so they share every rotation sample,
    which kills most of the variance of the ratio; the error bar is the
    delta-method expansion.  One `_classify` call a block gives both, its
    in-A mask and its region mask.  Each sample's counts equal
    `count_region` on its own lattice; `budget` caps each sample's box.
    """
    spec = RegionSpec("R", lat.dim - 1, T=1.0, c=c, eps=eps, norm="euclidean", A=A)
    fs = [RegionIndicator(spec), RegionIndicator(replace(spec, A=None))]

    def masks(pts, ns, bases, which):
        ok, _, in_A = _classify(pts, spec, ns, bases, which)
        return in_A, ok

    xs, ys = _sample_sums(fs, lat, t, M, seed, budget, masks)
    num, den = (_estimate(f, vals, t, seed, keep_trace) for f, vals in zip(fs, (xs, ys)))
    if den.mean == 0.0:
        raise ZeroDenominator("no lattice points hit the region; increase t or M")
    ratio = num.mean / den.mean
    cov = np.cov(xs, ys, ddof=1)
    var = (cov[0, 0] - 2 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / M / den.mean**2
    return RatioEstimate(ratio, math.sqrt(max(var, 0.0)), num, den, A.measure())

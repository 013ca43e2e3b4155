"""`enumerate_stacked` against the full-box expansion it replaced.

The oracle expands every candidate of each basis's covering integer box
(`lattice._integer_boxes`), forms its point on its own basis with
`lattice._points` and keeps the nonzero points in the box, as the
enumerator did before it cut each prefix's last coordinate to the range
that can reach the box.  Both must yield the same points, bit for bit, with
the same coordinates and basis indices.
"""

import numpy as np
import pytest

from latdir import lattice as lm
from latdir.lattice import RegionSpec, g_flow, pad_box
from latdir.siegel import haar_rotations, rng_streams

BIG_STACK = 32


def full_box_blocks(bases, box_lo, box_hi, budget=10**8):
    """Blocks (which, points, coords) of every nonzero point in the box, one
    mixed-radix index range over all covering integer boxes, ENUM_CHUNK
    candidates at a time, each complete box sorted by (which, n)."""
    Bs = np.asarray(bases, dtype=float)
    K, dim = Bs.shape[:2]
    lo = np.broadcast_to(np.asarray(box_lo, dtype=float), (K, dim))
    hi = np.broadcast_to(np.asarray(box_hi, dtype=float), (K, dim))
    Us, _, m_lo, sizes = lm._integer_boxes(Bs, lo, hi, budget)
    totals = sizes.prod(axis=1)
    ends = np.cumsum(totals)
    starts = ends - totals
    n_total = int(ends[-1])
    pending, emitted = [], 0
    for c0 in range(0, n_total, lm.ENUM_CHUNK):
        c1 = min(c0 + lm.ENUM_CHUNK, n_total)
        g = np.arange(c0, c1, dtype=np.int64)
        k = np.searchsorted(ends, g, side="right")
        rest, m = g - starts[k], np.empty((len(g), dim), dtype=np.int64)
        for j in range(dim - 1, 0, -1):
            rest, m[:, j] = np.divmod(rest, sizes[k, j])
        m[:, 0] = rest
        m += m_lo[k]
        ns = np.einsum("kij,kj->ki", Us[k], m)
        nz = ns.any(axis=1)
        k, ns = k[nz], ns[nz]
        pts = lm._points(ns.astype(float), Bs, k)
        inside = np.all((pts >= lo[k]) & (pts <= hi[k]), axis=1)
        pending.append((k[inside], ns[inside], pts[inside]))
        done = int(np.searchsorted(ends, c1, side="right"))
        if done == emitted:
            continue
        which, ns, pts = (np.concatenate(part) for part in zip(*pending))
        cut = int(np.searchsorted(which, done))
        pending, emitted = [(which[cut:], ns[cut:], pts[cut:])], done
        if cut:
            order = np.lexsort((*ns[:cut].T[::-1], which[:cut]))
            yield which[order], pts[order], ns[order]


def _joined(blocks, dim):
    """The blocks joined, checking that no basis spans two of them."""
    blocks = list(blocks)
    for (w0, _, _), (w1, _, _) in zip(blocks, blocks[1:]):
        assert w0[-1] < w1[0]
    empty = (np.zeros(0, np.int64), np.zeros((0, dim)), np.zeros((0, dim), np.int64))
    return [np.concatenate(part) for part in zip(empty, *blocks)]


def assert_matches_oracle(bases, lo, hi):
    bases = np.asarray(bases, dtype=float)
    dim = bases.shape[1]
    got = _joined(lm.enumerate_stacked(bases, lo, hi), dim)
    want = _joined(full_box_blocks(bases, lo, hi), dim)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return len(got[0])


def _flowed(d, t, K, seed):
    return g_flow(t, d) @ haar_rotations(d + 1, rng_streams([seed], K))


@pytest.mark.parametrize("K", [1, BIG_STACK])
@pytest.mark.parametrize("d, t", [(1, 0.0), (1, 6.0), (1, 10.0), (2, 0.0), (2, 6.0), (3, 0.0), (3, 6.0)])
def test_flowed_haar_stacks(d, t, K):
    lo, hi = pad_box(*RegionSpec("R", d, T=1.0, c=1.0, eps=0.1).bounding_box())
    found = assert_matches_oracle(_flowed(d, t, K, 100 * d + int(t)), lo, hi)
    assert found > 0 or K == 1  # one flowed sample may miss the region


@pytest.mark.parametrize("K", [1, BIG_STACK])
def test_boxes_with_and_without_the_origin(K):
    rng = np.random.default_rng(4)
    for d in (1, 2, 3):
        bases = _flowed(d, 2.0, K, d)
        around = rng.uniform(-3.0, -0.5, (K, d + 1)), rng.uniform(0.5, 3.0, (K, d + 1))
        off = rng.uniform(0.5, 1.5, (K, d + 1))
        away = off, off + rng.uniform(0.5, 3.0, (K, d + 1))
        for lo, hi in (around, away):
            assert_matches_oracle(bases, lo, hi)


@pytest.mark.parametrize("K", [1, BIG_STACK])
def test_horospherical_shells(K):
    # per-basis boxes: the flowed shells of a few targets, as the thm1 counts build them
    rng = np.random.default_rng(9)
    for d in (1, 2):
        xs = rng.random((K, d))
        _, B, box_lo, box_hi, _ = lm._flowed_shells(xs, [1] * K, [10**4] * K, [1.0] * K)
        assert assert_matches_oracle(B, box_lo, box_hi) > 0


@pytest.mark.parametrize("K", [1, BIG_STACK])
@pytest.mark.parametrize("dim", [2, 3])
def test_identity_bases(dim, K):
    # R = U has zero entries in its last column: those rows bound the prefix, not m_L
    bases = np.array([np.eye(dim)] * K)
    assert assert_matches_oracle(bases, np.full(dim, -2.5), np.full(dim, 2.5)) == K * (5**dim - 1)
    assert assert_matches_oracle(bases, np.full(dim, 0.5), np.full(dim, 2.0)) == K * 2**dim


@pytest.mark.parametrize("K", [1, BIG_STACK])
def test_zero_width_axis(K):
    rng = np.random.default_rng(6)
    for dim in (2, 3):
        lo, hi = np.full(dim, -2.0), np.full(dim, 2.0)
        for j in range(dim):
            flat_lo, flat_hi = lo.copy(), hi.copy()
            flat_lo[j] = flat_hi[j] = 0.0
            assert_matches_oracle(np.array([np.eye(dim)] * K), flat_lo, flat_hi)
            assert_matches_oracle(haar_rotations(dim, [rng] * K), flat_lo, flat_hi)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_faces_through_lattice_points(d):
    # each box shrunk to the float hull of its own points: every face holds a
    # point exactly, which the rounding margin of the range must keep
    bases = _flowed(d, 6.0, BIG_STACK, 7 + d)
    lo, hi = pad_box(*RegionSpec("R", d, T=1.0, c=1.0, eps=0.1).bounding_box())
    which, pts, _ = _joined(full_box_blocks(bases, lo, hi), d + 1)
    held = np.unique(which)
    tight_lo = np.array([pts[which == k].min(axis=0) for k in held])
    tight_hi = np.array([pts[which == k].max(axis=0) for k in held])
    assert assert_matches_oracle(bases[held], tight_lo, tight_hi) >= 2 * len(held)


def test_one_dimensional_stack():
    bases = np.array([[[1.0]], [[0.5]], [[-3.0]]])
    assert assert_matches_oracle(bases, [-2.5], [2.5]) == 4 + 10 + 0


def _expanded(monkeypatch):
    """A counter of the candidates whose points are formed, which checks
    that no chunk holds more than ENUM_CHUNK of them."""
    seen = [0]
    points = lm._points

    def counting(nf, Bs, k):
        assert len(nf) <= lm.ENUM_CHUNK
        seen[0] += len(nf)
        return points(nf, Bs, k)

    monkeypatch.setattr(lm, "_points", counting)
    return seen


def test_only_in_box_candidates_are_expanded(monkeypatch):
    seen = _expanded(monkeypatch)
    # Z^3: rows with a zero last coefficient empty the prefixes that miss the box
    blocks = list(lm.enumerate_stacked(np.array([np.eye(3)] * 4), [-2.5, 0.5, -1.5], [2.5, 2.0, 1.5]))
    assert seen[0] == sum(len(w) for w, _, _ in blocks) == 4 * 5 * 2 * 3
    for d in (1, 2, 3):
        seen[0] = 0
        lo, hi = pad_box(*RegionSpec("R", d, T=1.0, c=1.0, eps=0.1).bounding_box())
        found = sum(len(w) for w, _, _ in lm.enumerate_stacked(_flowed(d, 6.0, 200, d), lo, hi))
        assert found <= seen[0] <= 1.01 * found


def test_ranges_split_across_chunks(monkeypatch):
    # one prefix whose range holds 6,001 candidates, and a box of 201 prefixes
    # of 201 each, both cut into chunks of at most ENUM_CHUNK candidates
    _expanded(monkeypatch)
    rng = np.random.default_rng(12)
    bases = np.array([np.eye(2), np.eye(2), haar_rotations(2, [rng])[0]])
    lo = np.array([[-3000.0, 0.5], [-100.0, -100.0], [-40.0, -40.0]])
    hi = np.array([[3000.0, 1.5], [100.0, 100.0], [40.0, 40.0]])
    assert assert_matches_oracle(bases, lo, hi) > 6001 + 201**2 - 1

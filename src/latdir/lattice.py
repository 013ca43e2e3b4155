"""Unimodular lattices in R^{d+1}, thinning regions, and point counting.

The regions of interest pinch around the last coordinate axis:

    scalar constraint   ||v_1||^d |v_2| <= c
    window "P"          1 < v_2 <= T
    window "R"          eps*T <= v_2 <= T

Counting is exact-by-construction: candidates are generated by an exhaustive
enumerator and then filtered by the one region predicate, `_classify`, which
re-decides points grazing the scalar boundary in exact rationals from their
integer coordinates and the basis.  Lattice counts here and the Siegel
transforms of `siegel.RegionIndicator` both go through it.  The enumerator
LLL-reduces the basis in the metric of its box first and scans an integer
box in the reduced coordinates, each prefix's last coordinate only over the
range that can reach the box, so its cost does not grow with the condition
number of a flowed basis g_t k B.  It takes a whole stack of bases, reduces
it in one vectorised LLL pass, and expands the candidates of all their
boxes in fixed-size chunks, so one `siegel` Monte Carlo pass counts all its
samples at once.  Horospherical lattices h_x Z^{d+1} (float Dirichlet
approximates and region counts) go through the same enumerator: the
q-window is cut into geometric shells, and each shell, flowed by g_s, fills
one fixed box (Dani's correspondence), so a count up to T is one stack of
O(log T) boxes, and the float counts of many targets, or of many regions of
one lattice (`count_regions`), are one stack of all their shells.
Exact approximate counts of a continued-fraction target (d = 1) need no
lattice: they walk the O(log T) convergent levels q_m <= T and decide a
bounded set of candidate denominators at each (`contfrac.worley_walk`).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sphere
from .contfrac import HALF, CFNumber, Enclosure, worley_walk
from .sphere import DirectionSet

GRAZE_TOL = 1e-9


class CandidateBudgetExceeded(RuntimeError):
    """Candidate enumeration would exceed the configured budget, or the basis
    is degenerate (singular or non-finite)."""


class UnboundedRegion(ValueError):
    """Counting or volume requested for an unbounded region (kind R, eps = 0)."""


class DegenerateRational(RuntimeError):
    """qx - p = 0 was hit while directions were requested (rational input)."""


def default_budget() -> int:
    """The candidate budget: env LATDIR_BUDGET, a positive integer, or 10^8."""
    raw = os.environ.get("LATDIR_BUDGET")
    if raw is None:
        return 10**8
    try:
        budget = int(raw)
    except ValueError:
        budget = 0  # not an integer: rejected with the same message below
    if budget < 1:
        raise ValueError(f"LATDIR_BUDGET must be a positive integer, got {raw!r}")
    return budget


# ---------------------------------------------------------------------------
# lattices

@dataclass(frozen=True, eq=False)
class Lattice:
    """Unimodular lattice basis (columns of `basis` generate the lattice).

    `check=False` skips the determinant gate; composed bases like g_t k B are
    unimodular by construction but their float determinant drifts with the
    condition number e^{(d+1)t}.
    """

    basis: np.ndarray
    tag: str = "generic"
    x: tuple = ()  # horospherical parameter, empty for generic lattices
    check: bool = True

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "basis", B)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("basis must be a square matrix")
        if self.check:
            det = abs(float(np.linalg.det(B)))
            if abs(det - 1.0) > 1e-9:
                raise ValueError(f"basis is not unimodular: |det| = {det}")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def is_horospherical(self) -> bool:
        return self.tag == "horospherical"


def lattice_from_x(x) -> Lattice:
    """Horospherical lattice h_x Z^{d+1} = {(q x - p, q)}."""
    if isinstance(x, CFNumber):
        x = float(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    d = xv.shape[0]
    B = np.eye(d + 1)
    B[:d, d] = xv
    return Lattice(B, tag="horospherical", x=tuple(xv.tolist()))


def g_flow(t: float, d: int) -> np.ndarray:
    """diag(e^t, ..., e^t, e^{-dt}): expands directions, contracts height."""
    return np.diag([math.exp(t)] * d + [math.exp(-d * t)])


# ---------------------------------------------------------------------------
# regions

@dataclass(frozen=True)
class RegionSpec:
    """A truncation of the thinning region.

    kind "P": 1 < v_2 <= T; kind "R": eps*T <= v_2 <= T; kind "Q": the dyadic
    shell T/2 < v_2 <= T (so P_T is the disjoint union of the Q shells).
    """

    kind: str
    d: int
    T: float
    c: float = 0.0
    eps: float = 0.0
    norm: str = "euclidean"
    A: DirectionSet | None = None

    def __post_init__(self):
        if self.kind not in ("P", "R", "Q"):
            raise ValueError("kind must be 'P', 'R', or 'Q'")
        if self.norm not in ("euclidean", "sup"):
            raise ValueError("norm must be 'euclidean' or 'sup'")
        if not self.c >= 0.0:
            raise ValueError("c must be positive (0 takes the default 1)")
        if self.c == 0.0:
            # sup norm: the Dirichlet constant can be taken to be 1; euclidean:
            # only existence of the constant matters, 1 is the working default
            object.__setattr__(self, "c", 1.0)
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.kind == "R" and not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        if self.A is not None and self.A.dim != self.d:
            raise ValueError("direction set dimension mismatch")

    @property
    def bounded(self) -> bool:
        return self.kind != "R" or self.eps > 0.0

    def require_bounded(self):
        if not self.bounded:
            raise UnboundedRegion("kind R with eps = 0 is unbounded (the whole plane v_2 = 0 qualifies)")

    def v2_window(self) -> tuple[float, float, bool]:
        """(lo, hi, lo_strict) for the v_2 constraint."""
        if self.kind == "P":
            return 1.0, self.T, True
        if self.kind == "Q":
            return self.T / 2.0, self.T, True
        return self.eps * self.T, self.T, False

    def v1_radius(self) -> float:
        lo, _, _ = self.v2_window()
        v2_min = max(lo, 1.0) if self.kind in ("P", "Q") else lo
        return (self.c / v2_min) ** (1.0 / self.d)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        self.require_bounded()
        r = self.v1_radius()
        lo_v2, hi_v2, _ = self.v2_window()
        lo = np.array([-r] * self.d + [lo_v2])
        hi = np.array([r] * self.d + [hi_v2])
        return lo, hi


def _v1_norms(v1: np.ndarray, norm: str) -> np.ndarray:
    if norm == "sup":
        return np.max(np.abs(v1), axis=1)
    return np.sqrt(np.sum(v1 * v1, axis=1))


def _classify(points: np.ndarray, spec: RegionSpec, coords=None, bases=None, which=None):
    """Masks (scalar+window ok, degenerate v1, in A) for an (N, d+1) array.

    This is the one region predicate.  When the integer coordinates `coords`
    of the points are given with the (K, d+1, d+1) stack of bases they were
    enumerated on and each point's index `which` into it (all 0 when
    omitted), points that graze the scalar boundary in floating point are
    re-decided in exact rational arithmetic from their own basis (binary
    floats are exact rationals).
    """
    d = spec.d
    v1 = points[:, :d]
    v2 = points[:, d]
    norms = _v1_norms(v1, spec.norm)
    slack = spec.c - norms**d * np.abs(v2)
    ok = slack >= 0.0
    lo, hi, lo_strict = spec.v2_window()
    ok &= (v2 > lo) if lo_strict else (v2 >= lo)
    ok &= v2 <= hi

    graze = np.flatnonzero(np.abs(slack) < GRAZE_TOL * max(spec.c, 1.0))
    if bases is not None and len(graze):
        exact_rows = {}
        c2 = Fraction(spec.c) ** 2
        wlo, whi = Fraction(lo), Fraction(hi)
        for i in graze:
            k = 0 if which is None else int(which[i])
            if k not in exact_rows:
                exact_rows[k] = [[Fraction(v) for v in row] for row in bases[k].tolist()]
            n = [int(v) for v in coords[i]]
            exact = [sum(r[j] * n[j] for j in range(len(n))) for r in exact_rows[k]]
            ev2 = exact[d]
            if spec.norm == "sup":
                scalar_ok = max(abs(cc) for cc in exact[:d]) ** (2 * d) * ev2**2 <= c2
            else:
                scalar_ok = sum(cc * cc for cc in exact[:d]) ** d * ev2**2 <= c2
            window_ok = (ev2 > wlo if lo_strict else ev2 >= wlo) and ev2 <= whi
            ok[i] = bool(scalar_ok and window_ok)

    degenerate = ok & (norms == 0.0)
    in_A = None
    if spec.A is not None:
        in_A = np.zeros(len(points), dtype=bool)
        live = ok & ~degenerate
        if np.any(live):
            units = v1[live] / norms[live, None]
            in_A[live] = spec.A.contains_many(units)
    return ok, degenerate, in_A


def region_volume(spec: RegionSpec) -> float:
    """Lebesgue volume of the region (times vol(A) when a set is attached).

    Integrating the v_1 ball of radius (c/v_2)^{1/d} over the window gives
    omega * c * log(T) for kind P and omega * c * log(1/eps) for kind R,
    independent of T.
    """
    omega = sphere.ball_volume(spec.d, 1.0, spec.norm)
    frac = spec.A.measure() if spec.A is not None else 1.0
    if spec.kind == "P":
        if spec.T <= 1.0:
            return 0.0
        return frac * omega * spec.c * math.log(spec.T)
    if spec.kind == "Q":
        return frac * omega * spec.c * math.log(2.0)
    if spec.eps <= 0.0:
        raise UnboundedRegion("volume of kind R requires eps > 0")
    return frac * omega * spec.c * math.log(1.0 / spec.eps)


# ---------------------------------------------------------------------------
# exhaustive enumeration

LLL_DELTA = 0.75
LLL_STEP_CAP = 5000  # a capped, partly reduced basis only costs candidates
U_ENTRY_CAP = 2**53  # below it the entries of U are exact in float and in int64
TOO_ILL_CONDITIONED = "ill-conditioned basis: the reduction needs transform entries beyond float precision"
def _lll_stacked(A: np.ndarray) -> np.ndarray:
    """Exact unimodular U, a (K, n, n) int64 stack, with every A[k] U[k]
    LLL-reduced (delta = 3/4), in one vectorised pass over the stack.

    Each round recomputes A U for the bases still active, takes R from one
    stacked Gram-Schmidt (`_gram_schmidt_r`), size-reduces every column on
    R (the same column operations on R and U), and swaps the pair at the
    first Lovasz violation; a basis without one is done.  Gram-Schmidt runs
    in floats but U stays exact, so a float slip leaves A U less reduced,
    which costs candidates, never points; a basis still active after
    LLL_STEP_CAP rounds keeps its partly reduced U.  One stacked exact
    determinant (`_int_dets`) then checks that every U is unimodular.

    Before a size-reduction step U_j -= q U_i, TOO_ILL_CONDITIONED is raised
    exactly when some basis's |q| max|U_i| + max|U_j| reaches 2^53, so no
    entry of U passes 2^53 or wraps in int64.  That per-basis test runs only
    once a scalar `bound` >= max |U| over the active stack reaches 2^53: it
    starts at 1 (U = I), swaps and finished bases leave the max as it is,
    and a step raises the max at most by the factor 1 + |q|_max.  Rounding
    is monotone and every integer below 2^53 is a float, so while the float
    bound is below 2^53 every basis's test value is an integer below it and
    would pass.  A tripped bound is reset to the max after its step.
    """
    K, n = A.shape[:2]
    U = np.broadcast_to(np.eye(n, dtype=np.int64), (K, n, n)).copy()
    active = np.arange(K)
    above = (slice(None), np.arange(n - 1), np.arange(1, n))  # R[k-1, k]
    bound = 1.0
    for _ in range(LLL_STEP_CAP):
        if not len(active):
            break
        Ua = U[active]
        R = _gram_schmidt_r(A[active] @ Ua)
        diag = np.diagonal(R, axis1=1, axis2=2)  # size reduction leaves it as it is
        if not (diag.min() > 0.0 and diag.max() < math.inf):  # a NaN fails both
            raise CandidateBudgetExceeded("degenerate basis: linearly dependent or non-finite columns")
        for j in range(1, n):
            for i in range(j - 1, -1, -1):
                q = np.rint(R[:, i, j] / R[:, i, i])
                q_max = np.abs(q).max()
                if not q_max:  # already size-reduced (a NaN q counts as nonzero)
                    continue
                bound *= 1.0 + q_max
                tripped = not bound < U_ENTRY_CAP  # also on a NaN q
                if tripped:
                    grown = np.abs(q) * np.abs(Ua[:, :, i]).max(axis=1) + np.abs(Ua[:, :, j]).max(axis=1)
                    if not np.all(grown < U_ENTRY_CAP):
                        raise CandidateBudgetExceeded(TOO_ILL_CONDITIONED)
                R[:, :i + 1, j] -= q[:, None] * R[:, :i + 1, i]
                Ua[:, :, j] -= q.astype(np.int64)[:, None] * Ua[:, :, i]
                if tripped:
                    bound = float(np.abs(Ua).max())
        r2 = diag**2
        bad = r2[:, 1:] + R[above] ** 2 < LLL_DELTA * r2[:, :-1]
        swap = np.flatnonzero(bad.any(axis=1))
        if len(swap):  # never at n = 1, where `bad` has no column to take argmax over
            k = bad[swap].argmax(axis=1)  # first violating pair (k, k + 1)
            Ua[swap, :, k], Ua[swap, :, k + 1] = Ua[swap, :, k + 1], Ua[swap, :, k]
        U[active] = Ua
        active = active[swap]
    if np.any(np.abs(_int_dets(U)) != 1):
        raise ArithmeticError("basis reduction produced a non-unimodular transform")
    return U


def _gram_schmidt_r(A: np.ndarray) -> np.ndarray:
    """R of A = Q R for a (K, n, n) stack, by modified Gram-Schmidt over the
    columns: R_ii >= 0 is the norm of column i once the earlier directions
    are projected out.  Its R is as accurate as Householder's (Bjorck, BIT 7,
    1967); only Q loses orthogonality, and Q is not formed.  A column that
    projects to 0, or a non-finite one, leaves a 0, NaN or inf on R's diagonal."""
    V = A.copy()
    R = np.zeros_like(V)
    n = V.shape[2]
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(n):
            R[:, i, i] = r = np.sqrt(np.einsum("kr,kr->k", V[:, :, i], V[:, :, i]))
            if i + 1 < n:
                q = V[:, :, i] / r[:, None]
                R[:, i, i + 1:] = np.einsum("kr,krj->kj", q, V[:, :, i + 1:])
                V[:, :, i + 1:] -= q[:, :, None] * R[:, i, None, i + 1:]
    return R


def _int_dets(U: np.ndarray) -> np.ndarray:
    """Exact determinants of a (K, n, n) stack of integer matrices, by one
    fraction-free (Bareiss) elimination over the stack in Python integers;
    a matrix whose pivot is 0 swaps up the first nonzero row below it."""
    a = np.array(U, dtype=object)
    K, n = a.shape[:2]
    sign, prev = np.ones(K, dtype=np.int64), 1
    for k in range(n - 1):
        zero = np.flatnonzero(a[:, k, k] == 0)
        if len(zero):
            rows = k + (a[zero, k:, k] != 0).argmax(axis=1)  # k again if the column is 0 ...
            a[zero, k], a[zero, rows] = a[zero, rows], a[zero, k]
            sign[zero[rows != k]] *= -1
            dead = zero[rows == k]  # ... and then the determinant is 0
            sign[dead] = 0
            a[dead, k, k] = 1  # a nonzero pivot keeps the divisions below defined
        pivot = a[:, k, k, None, None]
        a[:, k + 1:, k + 1:] = (a[:, k + 1:, k + 1:] * pivot
                                - a[:, k + 1:, k, None] * a[:, k, None, k + 1:]) // prev  # exact
        prev = pivot
    return sign * a[:, -1, -1]


def _int_bounds(lo: np.ndarray, hi: np.ndarray):
    pad_lo = 1e-9 * (np.abs(lo) + 1.0)
    pad_hi = 1e-9 * (np.abs(hi) + 1.0)
    return np.ceil(lo - pad_lo), np.floor(hi + pad_hi)


ENUM_CHUNK = 2048  # candidates expanded at once, so memory does not grow with the box


def _points(nf: np.ndarray, Bs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The point of each row: the fixed-order sum nf[i, 0] B[:, 0] + ... +
    nf[i, D-1] B[:, D-1] on its own basis B = Bs[k[i]], left to right, each
    term one float multiply and one add (no BLAS, no fused multiply-add).
    So a point's bits depend on its coordinates and basis alone, not on the
    chunk it is formed in nor on the machine's BLAS kernel.  No pinned count
    rests on those last bits: the enumeration and counting regression
    digests hold with up to 2^10 random ulps added to every point."""
    G = Bs[k]
    pts = nf[:, 0, None] * G[:, :, 0]
    for j in range(1, nf.shape[1]):
        pts += nf[:, j, None] * G[:, :, j]
    return pts


def _lex_order(keys: list[np.ndarray]) -> np.ndarray:
    """The stable order of the rows by the integer `keys` lexicographically,
    first key first, as np.lexsort(keys[::-1]) gives it.  np.lexsort pays
    for every key after the first, so runs of consecutive keys are packed
    into one mixed-radix int64 key while it fits."""
    if not len(keys[0]):
        return np.zeros(0, dtype=np.intp)
    packed, width = [], 0
    for k in keys:
        low = int(k.min())
        span = int(k.max()) - low + 1
        if packed and width * span <= 2**63:
            packed[-1] = packed[-1] * span + (k - low)
            width *= span
        else:  # a key spanning more than 2^63 is taken as it is, and nothing joins it
            packed.append(k - low if span <= 2**63 else k)
            width = span
    return np.lexsort(packed[::-1])


def _integer_boxes(Bs: np.ndarray, lo: np.ndarray, hi: np.ndarray, budget: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U, R, m_lo, sizes) for `enumerate_stacked`: each basis's exact
    reducing transform U, the float product R = B U, and the integer box
    m_lo <= m < m_lo + sizes whose candidates n = U m cover the basis's box,
    checked against the budget.  Its temporaries die here, before any
    candidate is expanded."""
    dim = Bs.shape[1]
    # reduce diag(1/w) B, w the box's widths; a width that is 0 or infinite
    # takes the box's largest finite width (1 if none), so the scale stays finite
    w = hi - lo
    usable = np.isfinite(w) & (w > 0.0)
    widest = np.where(usable, w, 0.0).max(axis=1, keepdims=True)
    w = np.where(usable, w, np.where(widest > 0.0, widest, 1.0))
    Us = _lll_stacked(Bs / w[:, :, None])
    R = Bs @ Us
    try:
        Rinv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        raise CandidateBudgetExceeded("degenerate basis: singular after reduction") from None
    with np.errstate(all="ignore"):
        center = np.einsum("kij,kj->ki", Rinv, (lo + hi) / 2.0)
        extent = np.einsum("kij,kj->ki", np.abs(Rinv), (hi - lo) / 2.0)
        # widen by the rounding error of the float products B U m and B n (`_points`)
        m_abs = np.abs(center) + extent + 1.0
        rounding = 4 * dim * np.finfo(float).eps * np.einsum(
            "kij,kj->ki", np.abs(Bs), np.einsum("kij,kj->ki", np.abs(Us), m_abs))
        extent += np.einsum("kij,kj->ki", np.abs(Rinv), rounding)
    m_lo, m_hi = _int_bounds(center - extent, center + extent)
    if not (np.all(np.isfinite(m_lo)) and np.all(np.isfinite(m_hi))):
        raise CandidateBudgetExceeded("unbounded preimage of the box: degenerate basis or infinite box")
    sizes = np.maximum(m_hi - m_lo + 1.0, 0.0)
    # a float product of sizes is exact below 2^53, so only the boxes past
    # 2^52 or the budget are recounted, in Python integers that never wrap
    for row in sizes[sizes.prod(axis=1) > min(budget, 2.0**52)].tolist():
        total = math.prod(int(v) for v in row)
        if total > budget:
            raise CandidateBudgetExceeded(f"{total} candidates exceeds budget {budget}")
    return Us, R, m_lo.astype(np.int64), sizes.astype(np.int64)


def _runs(starts: np.ndarray, ends: np.ndarray, g0: int, g1: int) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) of the flat indices g0 <= g < g1 of the back-to-back
    runs [starts[i], ends[i]): the run each index falls in, by one np.repeat
    over the runs the window meets, and its place in that run."""
    a = int(np.searchsorted(ends, g0, side="right"))
    b = int(np.searchsorted(ends, g1 - 1, side="right")) + 1
    span = np.minimum(ends[a:b], g1) - np.maximum(starts[a:b], g0)
    return np.repeat(np.arange(a, b), span), np.arange(g0, g1) - np.repeat(starts[a:b], span)


def _last_ranges(R: np.ndarray, lo_s: np.ndarray, hi_s: np.ndarray, lowest: np.ndarray,
                 highest: np.ndarray, pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, counts): the range first <= m_L < first + counts of the last
    coordinate for each prefix pre = m_0..m_{L-1}, given each prefix's rows
    of R and of the widened box lo_s..hi_s, and the integer box's bounds
    lowest..highest on m_L.

    m_L runs over the closed range where s + r m_L, with s = R[:, :L] pre and
    r = R[:, L], lies in lo_s..hi_s, cut to lowest..highest; a row with
    r = 0 keeps the whole range if s lies in its window and empties it if
    not.  The quotient by r rounds by u = 2^-53 relative, which the 1e-9
    pad of `_int_bounds` covers.
    """
    L = pre.shape[1]
    s = np.einsum("pij,pj->pi", R[:, :, :L], pre)
    r = R[:, :, L]
    down, flat = r < 0.0, r == 0.0
    below = np.where(down, hi_s, lo_s) - s  # times r: each row's least m_L
    above = np.where(down, lo_s, hi_s) - s  # times r: each row's largest m_L
    miss = (flat & ((below > 0.0) | (above < 0.0))).any(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        below /= r
        above /= r
    below[flat], above[flat] = -np.inf, np.inf
    first, last = _int_bounds(below.max(axis=1), above.min(axis=1))
    first = np.clip(first, lowest, highest + 1).astype(np.int64)
    last = np.clip(last, lowest - 1, highest).astype(np.int64)
    return first, np.where(miss, 0, np.maximum(last - first + 1, 0))


def _in_box_chunks(Bs, lo, hi, shared: bool, budget: int):
    """(which, coords, points, done) of `enumerate_stacked`: the nonzero
    in-box points of each chunk of at most ENUM_CHUNK candidates, unsorted,
    and the number of bases whose candidates are all expanded after it.
    The integer boxes (`_integer_boxes`) are checked against the budget
    before the first chunk.

    The prefixes m_0..m_{L-1} (L = D - 1, D the dimension) of every integer
    box form one mixed-radix index range, taken ENUM_CHUNK at a time, and
    each prefix's last coordinate m_L runs over `_last_ranges` of the box
    widened by `slack` on every side.  The widest axis of each integer box
    is put last, so the prefixes are as few as they can be.

    The range misses no candidate whose float point B n (`_points`) lies in the box.
    Let u = 2^-53, g = D u / (1 - D u), and N = |U| m_abs, m_abs the largest
    |m| of the integer box by axis.  For every candidate m and n = U m:
    the float point differs from the real B n by at most g |B| N (a float
    dot product of length D errs by g times the sum of the absolute terms,
    Higham 2002, section 3.1; rounding n to a float adds u |B| N); the float
    R differs from B U by g |B||U|, which moves R m by g |B| N; and the float
    prefix sum s differs from its real value by g |R| m_abs <= g (1 + g)
    |B| N.  Forming lo - slack and subtracting s rounds by at most
    2 u (|lo| + slack + |s|) more, and |s| <= (1 + g)^2 |B| N.  All of it is
    below slack = 8 D u (|B| N + |lo| + |hi|) (as computed: 4 D eps, eps =
    2u) for every D >= 1, with room for the rounding of slack itself.  The
    final float test on the points decides, so the output does not depend
    on the range beyond this inclusion.
    """
    dim = Bs.shape[1]
    L = dim - 1
    Us, R, m_lo, sizes = _integer_boxes(Bs, lo, hi, budget)
    axes = np.argsort(sizes, axis=1, kind="stable")
    Us, R = (np.take_along_axis(X, axes[:, None, :], axis=2) for X in (Us, R))
    m_lo, sizes = (np.take_along_axis(X, axes, axis=1) for X in (m_lo, sizes))
    m_hi = m_lo + sizes - 1
    m_abs = np.maximum(np.abs(m_lo), np.abs(m_hi)).astype(float)
    slack = 4 * dim * np.finfo(float).eps * (
        np.einsum("kij,kj->ki", np.abs(Bs), np.einsum("kij,kj->ki", np.abs(Us), m_abs)) + np.abs(lo) + np.abs(hi))
    lo_s, hi_s = lo - slack, hi + slack
    prefixes = sizes[:, :L].prod(axis=1)  # one empty prefix a box at n = 1
    p_ends = np.cumsum(prefixes)
    p_starts = p_ends - prefixes
    n_prefixes = int(p_ends[-1])
    for p0 in range(0, n_prefixes, ENUM_CHUNK):
        p1 = min(p0 + ENUM_CHUNK, n_prefixes)
        k, rest = _runs(p_starts, p_ends, p0, p1)
        # mixed-radix digits, last axis fastest: the order of meshgrid(indexing="ij")
        pre = np.empty((len(k), L), dtype=np.int64)
        for j in range(L - 1, 0, -1):
            rest, pre[:, j] = np.divmod(rest, sizes[k, j])
        if L:
            pre[:, 0] = rest
        pre += m_lo[k, :L]
        first, counts = _last_ranges(R[k], lo_s[k], hi_s[k], m_lo[k, L], m_hi[k, L], pre)
        c_ends = np.cumsum(counts)
        c_starts = c_ends - counts
        total = int(c_ends[-1])
        if not total:
            yield (np.zeros(0, np.int64), np.zeros((0, dim), np.int64), np.zeros((0, dim)),
                   int(np.searchsorted(p_ends, p1, side="right")))
            continue
        # U is unimodular, so n = 0 only at m = 0: the zero prefix's m_L = 0
        zero = np.flatnonzero(~pre.any(axis=1) & (first <= 0) & (first + counts > 0))
        zero_at = c_starts[zero] - first[zero]
        n_pre = np.einsum("pij,pj->pi", Us[k, :, :L], pre)
        n_last = Us[k, :, L]
        for c0 in range(0, total, ENUM_CHUNK):
            c1 = min(c0 + ENUM_CHUNK, total)
            owner, off = _runs(c_starts, c_ends, c0, c1)
            skip = zero_at[(zero_at >= c0) & (zero_at < c1)] - c0
            if len(skip):
                owner, off = np.delete(owner, skip), np.delete(off, skip)
            ns = n_pre[owner] + (first[owner] + off)[:, None] * n_last[owner]
            which = k[owner]
            pts = _points(ns.astype(float), Bs, which)
            inside = np.ones(len(which), dtype=bool)
            for j in range(dim):
                lo_j, hi_j = (lo[0, j], hi[0, j]) if shared else (lo[which, j], hi[which, j])
                inside &= (pts[:, j] >= lo_j) & (pts[:, j] <= hi_j)
            done = p0 + int(np.searchsorted(c_ends, c1, side="right"))  # prefixes fully expanded
            yield which[inside], ns[inside], pts[inside], int(np.searchsorted(p_ends, done, side="right"))


def enumerate_stacked(bases, box_lo, box_hi, *, budget: int | None = None
                      ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All nonzero points of K lattices in closed axis-aligned boxes, exhaustively.

    `bases` is a (K, n, n) stack of bases (columns generate each lattice);
    the box is one (n,) pair for every basis or one (K, n) row per basis.
    Each basis B gets an exact unimodular U that LLL-reduces diag(1/w) B, w
    the widths of B's box, so R = B U is nearly orthogonal in the metric in
    which the box is a cube (an axis of width 0 takes the box's largest).
    The box's preimage under R is covered by an integer box, which stays
    small however ill-conditioned B is (a flowed g_t k basis has condition
    number e^{(d+1)t}) until the rounding margin of the float products
    dominates, near condition number 1e12.  The box is bounded from a fresh
    product B U, so an imperfect float reduction costs candidates, never
    points, and the points do not depend on U.  The whole stack is reduced
    in one vectorised pass (`_lll_stacked`).

    Only the candidates that can reach the box are expanded: every
    coordinate of m but the last runs over the integer box, and for each
    such prefix the last runs over the closed range that R maps into the
    box, widened by a proven rounding margin (`_in_box_chunks`), at most
    ENUM_CHUNK candidates at a time.  Each candidate forms n = U m and its
    point B n on its own basis, the fixed-order sum of `_points` (not a BLAS
    product), and the nonzero points that pass the float test against the
    box are kept.  Once all of a box's chunks are in, its points are
    yielded, so the working memory is set by the chunk and the largest
    box's output, not by K.  Yields blocks (which, points,
    coords): each point's basis index, the point and its integer
    coordinates n, sorted by (which, n) lexicographically; the blocks follow
    one another in basis order and bases without a point yield nothing.

    Raises CandidateBudgetExceeded before expanding any candidate when an
    integer box holds more points than the budget (default 10^8, env
    LATDIR_BUDGET), when a basis is degenerate, or when its reduction needs
    entries of U of 2^53 or more.
    """
    Bs = np.asarray(bases, dtype=float)
    if Bs.ndim != 3 or Bs.shape[1] != Bs.shape[2] or not len(Bs):
        raise ValueError("bases must be a nonempty (K, n, n) stack of square matrices")
    K, dim = Bs.shape[:2]
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape not in ((dim,), (K, dim)) or hi.shape not in ((dim,), (K, dim)):
        raise ValueError("box endpoints must match the lattice dimension")
    if np.any(hi < lo):
        raise ValueError("box endpoints out of order")
    shared = lo.ndim == 1 and hi.ndim == 1
    lo, hi = np.broadcast_to(lo, (K, dim)), np.broadcast_to(hi, (K, dim))
    budget = budget if budget is not None else default_budget()
    pending: list = []  # (which, coords, points) found since the last complete box
    emitted = 0
    for which, ns, pts, done in _in_box_chunks(Bs, lo, hi, shared, budget):
        pending.append((which, ns, pts))
        if done == emitted:
            continue
        which, ns, pts = (np.concatenate(part) for part in zip(*pending))
        cut = int(np.searchsorted(which, done))  # which never decreases along the range
        pending, emitted = [(which[cut:], ns[cut:], pts[cut:])], done
        if cut:
            order = _lex_order([which[:cut], *ns[:cut].T])
            yield which[order], pts[order], ns[order]


def pad_box(box_lo, box_hi) -> tuple[np.ndarray, np.ndarray]:
    """The closed box widened by 1e-9 (|lo| + |hi| + 1) on every side, so
    points that graze its faces in floating point reach the exact recheck."""
    pad = 1e-9 * (np.abs(box_lo) + np.abs(box_hi) + 1.0)
    return box_lo - pad, box_hi + pad


def enumerate_in_box(lat: Lattice, box_lo, box_hi, *, budget: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero lattice points in the closed axis-aligned box, exhaustively:
    the one-basis call of `enumerate_stacked`.  Returns (points, coords), the
    points B n, each the fixed-order sum of `_points` (not a BLAS product),
    and their integer coordinates n, in lexicographic order of n.
    """
    if np.ndim(box_lo) != 1 or np.ndim(box_hi) != 1:
        raise ValueError("box endpoints must match the lattice dimension")
    block = next(enumerate_stacked(lat.basis[None], box_lo, box_hi, budget=budget), None)
    if block is None:  # no point in the box
        return np.zeros((0, lat.dim)), np.zeros((0, lat.dim), dtype=np.int64)
    return block[1], block[2]


# ---------------------------------------------------------------------------
# horospherical candidates through flowed shells

# q-shells e <= q < SHELL_RATIO e: a smaller ratio pays more shells, a larger
# one bigger boxes.  On a 2-core VM, 200 d = 1 targets at T = 1e5 counted in
# 18.9 / 12.6 / 11.8 / 13.1 / 15.7 ms at ratios 2 / 4 / 8 / 16 / 32, and 50
# d = 2 targets at T = 1e4 in 9.9 / 7.6 / 7.7 / 9.2 / 10.9 ms.
SHELL_RATIO = 8


def _flowed_shells(xs: np.ndarray, q_lo: list[int], q_hi: list[int], C: list[float]):
    """(row, bases, box_lo, box_hi, window) of the flowed shells of
    `_horo_candidates`, one entry a shell, row-major and ascending in q
    within a row; None if no row has a shell.  Each basis has the columns
    (q, p_1, ..., p_d), so its integer coordinates are n = (q, p).  The
    windows e <= q <= top are exact int64; q_lo >= 1.  The shell table dies
    here, before any candidate is expanded."""
    d = xs.shape[1]
    lo, hi = np.array(q_lo, dtype=np.int64), np.array(q_hi, dtype=np.int64)
    ratios, widest = [1], int(hi.max(initial=0))  # SHELL_RATIO^j for every j with a shell
    while ratios[-1] * SHELL_RATIO <= widest:
        ratios.append(ratios[-1] * SHELL_RATIO)
    ratio = np.array(ratios, dtype=np.int64)
    row, level = np.nonzero(lo[:, None] <= hi[:, None] // ratio)  # q_lo R^j <= q_hi, exactly
    if not len(row):
        return None
    e, q_top = lo[row] * ratio[level], hi[row]
    cap = q_top // SHELL_RATIO
    top = np.where(e <= cap, np.minimum(e, cap) * SHELL_RATIO - 1, q_top)  # min(R e - 1, q_hi), no wrap
    x, c = xs[row], np.array(C, dtype=float)[row, None]
    ef, tf = e.astype(float), top.astype(float)
    a = ef ** (1.0 / d)
    B = np.zeros((len(e), d + 1, d + 1))
    B[:, :d, 0] = a[:, None] * x
    B[:, d, 0] = 1.0 / ef
    B[:, range(d), range(1, d + 1)] = -a[:, None]
    n_abs = np.column_stack([tf, np.abs(x) * tf[:, None] + c + 1.0])
    margin = 4 * (d + 1) * np.finfo(float).eps * (np.einsum("kij,kj->ki", np.abs(B), n_abs) + c)
    r = c + margin[:, :d]
    box_lo = np.column_stack([-r, (ef - 0.5) / ef])
    box_hi = np.column_stack([r, (tf + 0.5) / ef])
    return row, B, box_lo, box_hi, np.array([e, top])


def _horo_candidates(xs: np.ndarray, q_lo: list[int], q_hi: list[int], C: list[float],
                     budget: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks (row, q, p) of the integer (q, p) with q_lo[i] <= q <= q_hi[i]
    and |q x - p|_inf <= C[i] q^{-1/d}, for every row x = xs[i] of the (N, d)
    stack `xs`; a few points just beyond the radius may come along.  Rows are
    sorted by (row, q, p) within each block, and the blocks follow one
    another in that order.

    Dani's correspondence: the geometric shell e <= q < SHELL_RATIO e of
    h_x Z^{d+1}, flowed by diag(a, ..., a, a^{-d}) with a^d = e, lies in the
    fixed box |v_1| <= C, 1 <= v_2 < SHELL_RATIO, so the shells of all rows,
    O(log(q_hi/q_lo)) a row, are the boxes of one `enumerate_stacked` call.
    Each box is widened by the rounding error of its flowed float
    coordinates and of the callers' q x - p and C q^{-1/d}, bounded like the
    enumerator's margin, so no point a float predicate on q x - p accepts is
    dropped by the box filter.  The q-window is cut on the exact integer q.

    No sort is needed: the enumerator yields (which, n) in order, n = (q, p),
    and the shells are row-major and ascend in q within a row, so that order
    is (row, q, p).
    """
    shells = _flowed_shells(xs, q_lo, q_hi, C)
    if shells is None:
        return
    row, B, box_lo, box_hi, window = shells
    for which, _, ns in enumerate_stacked(B, box_lo, box_hi, budget=budget):
        q = ns[:, 0]
        keep = (q >= window[0, which]) & (q <= window[1, which])
        yield row[which[keep]], q[keep], ns[keep, 1:]


# ---------------------------------------------------------------------------
# counting

@dataclass
class CountResult:
    """total ignores the direction set; in_A counts direction hits; degenerate
    counts in-region points with v_1 = 0 (never in in_A)."""

    total: int
    in_A: int | None = None
    degenerate: int = 0
    witnesses: list | None = None

    def to_obj(self) -> dict:
        obj = {"total": self.total, "in_A": self.in_A, "degenerate": self.degenerate}
        if self.witnesses is not None:
            obj["witnesses"] = self.witnesses
        return obj


def _count_from_points(points, spec, coords, lat, want_witnesses=False) -> CountResult:
    ok, degenerate, in_A = _classify(points, spec, coords, lat.basis[None])
    total = int(np.count_nonzero(ok))
    res = CountResult(total=total, degenerate=int(np.count_nonzero(degenerate)))
    if spec.A is not None:
        res.in_A = int(np.count_nonzero(in_A))
    if want_witnesses:
        res.witnesses = [tuple(p) for p in points[ok]]
    return res


def count_region(lat: Lattice, spec: RegionSpec, *, budget: int | None = None,
                 want_witnesses: bool = False) -> CountResult:
    """#(lattice points in the region), split into total / in_A / degenerate:
    the one-spec call of `count_regions`."""
    return count_regions(lat, [spec], budget=budget, want_witnesses=want_witnesses)[0]


def count_regions(lat: Lattice, specs, *, budget: int | None = None,
                  want_witnesses: bool = False) -> list[CountResult]:
    """`count_region` for every spec of `specs`, from one stacked enumeration.

    A horospherical lattice is counted shell by shell through the flowed
    lattice, one row of `_horo_candidates` a spec; any other lattice repeats
    its basis, one reduced box around each region.  Either way each spec's
    points are classified by the same predicate, and `budget` caps each
    enumerated box.  Every spec is checked before anything is enumerated.
    """
    specs = list(specs)
    for spec in specs:
        spec.require_bounded()
        if lat.dim != spec.d + 1:
            raise ValueError("lattice / region dimension mismatch")
    if not specs:
        return []
    if lat.is_horospherical:
        x = np.asarray(lat.x, dtype=float)
        windows = [spec.v2_window() for spec in specs]
        q_lo = [math.floor(lo) + 1 if lo_strict else math.ceil(lo) for lo, _, lo_strict in windows]
        q_hi = [math.floor(hi) for _, hi, _ in windows]
        C = [spec.c ** (1.0 / spec.d) for spec in specs]
        blocks = ((k, np.column_stack([q[:, None] * x[None, :] - p, q.astype(float)]),
                   np.column_stack([-p, q]))
                  for k, q, p in _horo_candidates(np.tile(x, (len(specs), 1)), q_lo, q_hi, C, budget))
    else:
        lo, hi = (np.array(side) for side in zip(*(pad_box(*spec.bounding_box()) for spec in specs)))
        blocks = enumerate_stacked(np.repeat(lat.basis[None], len(specs), axis=0), lo, hi, budget=budget)
    empty = (np.zeros(0, np.int64), np.zeros((0, lat.dim)), np.zeros((0, lat.dim), np.int64))
    which, pts, ns = (np.concatenate(part) for part in zip(empty, *blocks))
    cuts = np.searchsorted(which, np.arange(len(specs) + 1)).tolist()
    return [_count_from_points(pts[a:b], spec, ns[a:b], lat, want_witnesses)
            for spec, a, b in zip(specs, cuts[:-1], cuts[1:])]


def shell_count(lat: Lattice, i: int, c: float = 0.0, A: DirectionSet | None = None,
                norm: str = "euclidean") -> CountResult:
    """Count in the dyadic shell: scalar constraint plus 2^{i-1} < v_2 <= 2^i.

    Counted directly (not by subtracting two P counts), so the additivity
    identity sum of shells = #P_{2^N} is a real consistency check.
    """
    if i < 1:
        raise ValueError("shell index must be >= 1")
    spec = RegionSpec("Q", lat.dim - 1, T=float(2**i), c=c, norm=norm, A=A)
    return count_region(lat, spec)


def count_approximates(x, T: float, norm: str = "sup", C: float | None = None,
                       A: DirectionSet | None = None, *, want_witnesses: bool = False) -> CountResult:
    """Count Dirichlet approximates (p, q), 0 < q <= T, ||q x - p|| < C q^{-1/d}.

    For a CFNumber input (d = 1) every check is exact, and the count walks
    the convergents q_m <= T, deciding O(C log C) candidate denominators a
    level and emitting their multiples in closed form: O(log T) levels and
    memory of the size of the output, not of T.  A float input is the
    one-target call of `count_approximates_many`, and raises
    DegenerateRational when a hit has q x - p = 0 and a direction set is
    attached.  The inequality is strict, unlike regions.
    """
    if C is None:
        C = 1.0
    if T < 1:
        raise ValueError("T must be >= 1")
    exact = isinstance(x, CFNumber)
    if not exact:
        x = np.atleast_1d(np.asarray(x, dtype=float))
    if A is not None and A.dim != (1 if exact else x.shape[0]):
        raise ValueError("direction set dimension mismatch")
    if exact:
        return _count_approx_exact(x, int(math.floor(T)), Fraction(C), A, want_witnesses)
    (res,), first_degenerate = _count_approx_float(x[None], int(math.floor(T)), float(C), A, norm,
                                                   want_witnesses)
    if A is not None and res.degenerate:
        raise DegenerateRational(f"q x - p = 0 at q = {first_degenerate[0]} with a direction set attached")
    return res


def count_approximates_many(xs, T: float, norm: str = "sup", C: float | None = None,
                            A: DirectionSet | None = None, *, want_witnesses: bool = False
                            ) -> list[CountResult]:
    """`count_approximates` for every row x of the (N, d) float stack `xs`,
    from one stacked enumeration of all targets' flowed shells.

    Float targets take their candidates from the flowed shells of
    h_x Z^{d+1}, O(log T) boxes a target (`_horo_candidates`), and test the
    binary-float q x - p against C q^{-1/d}, so T is limited by float
    resolution, not memory: at d = 1 ulp(q x) reaches C/q near T = 1e8.  A
    target with a hit q x - p = 0 is not an error here: its `degenerate`
    counts those hits, which never count in `in_A`.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or not xs.size:
        raise ValueError("targets must be a nonempty (N, d) stack")
    if T < 1:
        raise ValueError("T must be >= 1")
    if A is not None and A.dim != xs.shape[1]:
        raise ValueError("direction set dimension mismatch")
    return _count_approx_float(xs, int(math.floor(T)), 1.0 if C is None else float(C), A, norm,
                               want_witnesses)[0]


def _count_approx_exact(cf: CFNumber, T: int, C: Fraction, A, want_witnesses) -> CountResult:
    """Exact d = 1 count from the continued fraction, in O(log T) levels.

    For q < ceil(2C), C/q > 1/2: the nearest p always hits and farther p may
    too (`_extra_p_signs`).  Every larger hit is a multiple g q' of a
    candidate of `contfrac.worley_walk`, which decides each q' <= T once on
    one shared `Enclosure` and gives its run of multiples in closed form.
    Each q >= ceil(2C) has one witness, the nearest p, so the hits are keyed
    by q and sorted, which gives the witnesses in the order of a scan over q.
    """
    enc = Enclosure(cf, 8)
    small = math.ceil(2 * C)
    signs: list[tuple[int, int]] = []
    for q in range(1, min(T, small - 1) + 1):
        signs.append((q, enc.decide(lambda iv: enc.rotation(q))[0]))
        signs.extend((q, s) for s in _extra_p_signs(enc, q, C))
    hits: dict[int, int] = {}
    for qq, sign, g_max in worley_walk(enc, T, C):
        for g in range(max(1, -(-small // qq)), g_max + 1):
            hits[g * qq] = sign
    signs.extend(sorted(hits.items()))
    in_A = None if A is None else sum(1 for _, s in signs if A.contains_sign(s))
    return CountResult(len(signs), in_A, 0, signs if want_witnesses else None)


def _extra_p_signs(enc: Enclosure, q: int, C: Fraction) -> list[int]:
    """Error signs of the non-nearest integers p with |qx - p| < C/q, exactly.

    With r the nearest integer and rep = qx - r, the integer r + k errs by
    rep - k (sign -1) and r - k by rep + k (sign +1), k = 1, 2, ...
    """
    bound = C / q
    k_max = math.floor(bound + HALF)

    def decide(iv):
        lo, hi = q * iv.lo, q * iv.hi
        r = math.floor(lo + HALF)
        if math.floor(hi + HALF) != r:
            return None
        rep_lo, rep_hi = lo - r, hi - r  # rep strictly inside
        signs: list[int] = []
        for k in range(1, k_max + 1):
            for err_lo, err_hi, s in ((k - rep_hi, k - rep_lo, -1), (k + rep_lo, k + rep_hi, 1)):
                if err_hi <= bound:
                    signs.append(s)
                elif err_lo < bound:
                    return None
        return signs

    return enc.decide(decide)


def _count_approx_float(xs: np.ndarray, T: int, C: float, A, norm: str, want_witnesses
                        ) -> tuple[list[CountResult], np.ndarray]:
    """The float count of every target, and each target's smallest q with
    q x - p = 0 among its hits (T + 1 if none), summed block by block."""
    N, d = xs.shape
    total, degenerate, in_A = (np.zeros(N, dtype=np.int64) for _ in range(3))
    first_degenerate = np.full(N, T + 1, dtype=np.int64)
    wits = [[] for _ in range(N)] if want_witnesses else None
    for t, q, p in _horo_candidates(xs, [1] * N, [T] * N, [C] * N):
        v1 = q[:, None] * xs[t] - p
        nrm = _v1_norms(v1, norm)
        hit = nrm < C * q.astype(float) ** (-1.0 / d)
        t, q, v1, nrm = t[hit], q[hit], v1[hit], nrm[hit]
        deg = nrm == 0.0
        total += np.bincount(t, minlength=N)
        degenerate += np.bincount(t[deg], minlength=N)
        np.minimum.at(first_degenerate, t[deg], q[deg])
        if A is not None:
            live = ~deg
            in_A += np.bincount(t[live][A.contains_many(v1[live] / nrm[live, None])], minlength=N)
        if want_witnesses:
            for tt, qq, vv, nn in zip(t.tolist(), q, v1, nrm):
                wits[tt].append((int(qq), tuple(vv.tolist()), tuple((vv / nn).tolist()) if nn else None))
    results = [CountResult(int(total[i]), None if A is None else int(in_A[i]), int(degenerate[i]),
                           wits[i] if want_witnesses else None) for i in range(N)]
    return results, first_degenerate

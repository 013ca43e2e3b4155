"""Exact census of thinning-region points for the biased continued fraction.

The census lists every q with |q.x| * q <= 1 (equality is impossible for an
irrational x), level by level: q_n <= q < q_{n+1}.  Each such q is written
q = m q_n + r with one of the four remainders

    r in {0, q_{n-1}, 2 q_{n-1}, q~ := q_n - q_{n-1}}

(the division-algorithm census).  The q themselves come from the one exact
engine `contfrac.worley_walk`, run with C = 1 below q_{n_max+1}: it decides
O(1) candidates a level on one shared `contfrac.Enclosure` and gives each
one's run of multiples in closed form, so a level costs the same whether
a_{n+1} is 4 or 10^10.  The run of multiples of q_n is the remainder-0
class and stays one interval; every other approximate is placed by its
remainder mod q_n, and one that falls in none of the four classes raises
rather than being dropped.

The CSV rows are `CensusRows`, a view whose exact length comes from the pieces,
so `ROW_TOTAL_CAP` is checked before any row exists.  The CSV text is streamed
a block of rows at a time, as bytes: within a run of rows only m and
q = q_n m + r change, both in arithmetic progression, so `_run_text` makes a
block as one uint8 array of ASCII from a template row, m's last four digits
a slice of a table of 4-digit groups and q written in base-10^8 limbs with
one int64 carry pass, its digits read off the same table.

The independent oracle `brute_force_in_R` scans every q instead: the float
screen `rotation_screen`, under an error bound proven in its docstring,
leaves only a few q to decide exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import groupby

import numpy as np

from .contfrac import CFNumber, Enclosure, biased_number, worley_walk


@dataclass
class ClassPieces:
    """In-census multipliers of one remainder class at one level."""

    label: str
    r: int
    p_r: int
    m_lo: int
    m_hi: int
    pieces: list = field(default_factory=list)  # (m_a, m_b, sign), disjoint, ascending

    @property
    def count(self) -> int:
        return sum(b - a + 1 for a, b, _ in self.pieces)

    def sign_count(self, sign: int) -> int:
        return sum(b - a + 1 for a, b, s in self.pieces if s == sign)


@dataclass
class CensusLevel:
    n: int
    q_n: int
    p_n: int
    a_next: int
    classes: list

    @property
    def L(self) -> int:
        """Count of remainder-0 in-census points (written L_n in reports)."""
        return self.classes[0].count

    @property
    def top_zero_q(self) -> int:
        """Largest remainder-0 in-census q at this level (0 if none)."""
        cls = self.classes[0]
        if not cls.pieces:
            return 0
        return self.q_n * cls.pieces[-1][1]


@dataclass
class CensusReport:
    n_max: int
    levels: list
    rows: CensusRows
    thresholds: list  # largest remainder-0 in-census q per odd level
    l_values: dict

    def window_counts(self, w_lo: int, w_hi: int) -> tuple[int, int]:
        """Exact (#sign -1, #sign +1) of in-census points with w_lo <= q <= w_hi."""
        minus = plus = 0
        for level in self.levels:
            qn = level.q_n
            for cls in level.classes:
                for a, b, s in cls.pieces:
                    # q(m) = qn m + r in window
                    m_a = max(a, -((w_lo - cls.r) // -qn))  # ceil division
                    m_b = min(b, (w_hi - cls.r) // qn)
                    if m_a > m_b:
                        continue
                    if s < 0:
                        minus += m_b - m_a + 1
                    else:
                        plus += m_b - m_a + 1
        return minus, plus

    def in_census_qs(self, q_max: int) -> list[tuple[int, int]]:
        """All (q, sign) with q <= q_max, read off the in-census rows."""
        return sorted((q, s) for *_, q, in_R, s in self.rows if in_R and q <= q_max)


ROW_FULL_CAP = 512      # emit every candidate row when a_{n+1} is this small
ROW_TOTAL_CAP = 500_000
ROW_FIELDS = ("n", "r_label", "r", "m", "q", "in_R", "sign")
# most rows in one block of CSV text (and ROW_SLICE * 10^8 <= 2^62, see
# `_digits`).  A block also ends at each multiple of GROUP of m, so 2,500
# cuts a long run's 10^4-row stretches into four equal blocks.  On a 2-vCPU
# VM (Python 3.11, numpy 2.4) the level-9 text took 9.0-11.5 ms at 2,000 and
# 2,500 rows, 10.3-13.8 ms at 1,000 and 11.6-18.1 ms at 4,096 (medians of
# 25 passes, in rounds), and the tracemalloc peak of `csv_text` grows with
# the block: 0.26 MB at 1,000, 0.64 MB at 2,500 and 1.04 MB at 4,096
ROW_SLICE = 2500


class RowCapExceeded(RuntimeError):
    """The census rows would pass ROW_TOTAL_CAP; rows are never truncated."""


def build_census(n_max: int, cf: CFNumber | None = None) -> CensusReport:
    """Levels 0..n_max of the biased census, exactly.

    Level 0 (1 <= q < q_1) is one class with m = q.  Levels n >= 1 need the
    four remainder classes to be distinct (2 q_{n-1} < q_n), which holds
    when a_1 >= 4 and every later element is >= 2; otherwise this raises
    ValueError, as it does for an approximate outside the classes.  Raises
    RowCapExceeded when the rows would pass ROW_TOTAL_CAP.
    """
    if n_max < 1 or n_max % 2 == 0:
        raise ValueError("n_max must be a positive odd index")
    if n_max > 9:
        raise ValueError("n_max above 9 is out of the desk-scale budget")
    cf = cf or biased_number()
    enc = Enclosure(cf, 24)
    levels = _levels(cf, n_max, enc)
    l_values = {lv.n: lv.L for lv in levels if lv.n % 2 == 1}
    thresholds = [lv.top_zero_q for lv in levels if lv.n % 2 == 1 and lv.top_zero_q]
    rows = CensusRows(levels, enc)
    if len(rows) > ROW_TOTAL_CAP:
        raise RowCapExceeded(f"census rows exceed ROW_TOTAL_CAP = {ROW_TOTAL_CAP}")
    return CensusReport(n_max, levels, rows, thresholds, l_values)


def _levels(cf: CFNumber, n_max: int, enc: Enclosure) -> list[CensusLevel]:
    """The census levels 0..n_max with their pieces, from `worley_walk` on `enc`."""
    a1 = cf.element(1)
    levels = [CensusLevel(0, 1, 0, a1, [ClassPieces("unit", 0, 0, 1, a1 - 1)])]
    for n in range(1, n_max + 1):
        cn, cn1 = cf.convergent(n), cf.convergent(n - 1)
        a_next = cf.element(n + 1)
        qt, pt = cn.q - cn1.q, cn.p - cn1.p
        remainders = {0, cn1.q, 2 * cn1.q, qt}
        if len(remainders) != 4 or not 2 * cn1.q < cn.q:
            raise ValueError(
                f"remainder classes collide at level {n}; the census needs "
                "2 q_(n-1) < q_n and four distinct remainders (elements >= 4 suffice)")
        levels.append(CensusLevel(n, cn.q, cn.p, a_next, [
            ClassPieces("0", 0, 0, 1, a_next),
            ClassPieces("q_{n-1}", cn1.q, cn1.p, 1, a_next - 1),
            ClassPieces("2q_{n-1}", 2 * cn1.q, 2 * cn1.p, 1, a_next - 1),
            ClassPieces("q~", qt, pt, 1, a_next - 1),
        ]))

    qs = [lv.q_n for lv in levels]
    found: dict[tuple[int, int], list] = {}  # (level, r) -> [(m_a, m_b, sign)]
    for qq, sign, G in worley_walk(enc, cf.convergent(n_max + 1).q - 1, Fraction(1)):
        n = bisect_right(qs, qq) - 1
        if qq == qs[n] and G:
            found.setdefault((n, 0), []).append((1, G, sign))
            continue
        for q in range(qq, G * qq + 1, qq):
            n = bisect_right(qs, q) - 1
            m, r = divmod(q, qs[n])
            found.setdefault((n, r), []).append((m, m, sign))

    for level in levels:
        for cls in level.classes:
            for a, b, s in sorted(found.pop((level.n, cls.r), [])):
                if not cls.m_lo <= a <= b <= cls.m_hi:
                    raise ValueError(f"level {level.n}, class {cls.label}: multipliers "
                                     f"{a}..{b} outside {cls.m_lo}..{cls.m_hi}")
                if cls.pieces and cls.pieces[-1][1] + 1 == a and cls.pieces[-1][2] == s:
                    cls.pieces[-1] = (cls.pieces[-1][0], b, s)
                else:
                    cls.pieces.append((a, b, s))
    if found:
        (n, r), pieces = min(found.items())
        raise ValueError(f"approximate q = {pieces[0][0] * qs[n] + r} at level {n} "
                         "lies in no remainder class of the census")
    return levels


def _row_sign(enc: Enclosure, level: CensusLevel, cls: ClassPieces, m: int) -> int:
    """Exact sign of a candidate row: of m.x (the representative in (-1/2, 1/2))
    at level 0, else of q x - p with (q, p) = m (q_n, p_n) + (r, p_r), read off
    x in (L/D, (L+1)/D) on the shared enclosure."""
    if level.n == 0:
        return enc.decide(lambda iv: enc.rotation(m))[0]
    q, p = level.q_n * m + cls.r, level.p_n * m + cls.p_r

    def run(iv):
        if q * enc.L >= p * enc.D:
            return 1
        if q * (enc.L + 1) <= p * enc.D:
            return -1
        return None

    return enc.decide(run)


class CensusRows:
    """The census rows as the CSV writes them, one `ROW_FIELDS` tuple each
    (q an int), made afresh from the pieces on every pass: every candidate
    m_lo..m_hi of a class when a_{n+1} + 1 <= ROW_FULL_CAP, else its in-census
    points plus the first excluded candidate after each piece, which witnesses
    the cutoff.  `len` counts the same rows without making one."""

    def __init__(self, levels: list, enc: Enclosure):
        self.levels, self.enc = levels, enc

    def _runs(self):
        """Runs (level, class, m_a, m_b, in_R, sign) of rows in order; sign 0: `_row_sign` per row."""
        for level in self.levels:
            full = level.a_next + 1 <= ROW_FULL_CAP
            for cls in level.classes:
                m = cls.m_lo
                for a, b, s in cls.pieces:
                    if full and m < a:
                        yield level, cls, m, a - 1, False, 0
                    yield level, cls, a, b, True, s
                    m = b + 1
                    if not full and m <= cls.m_hi:
                        yield level, cls, m, m, False, 0
                if full and m <= cls.m_hi:
                    yield level, cls, m, cls.m_hi, False, 0

    def __len__(self) -> int:
        return sum(b - a + 1 for _, _, a, b, _, _ in self._runs())

    def _signed_runs(self):
        """`_runs` with each sign-0 run cut into runs of one exact `_row_sign`."""
        for level, cls, a, b, in_R, s in self._runs():
            if s:
                yield level, cls, a, b, in_R, s
                continue
            for s, ms in groupby(range(a, b + 1), lambda m: _row_sign(self.enc, level, cls, m)):
                ms = list(ms)
                yield level, cls, ms[0], ms[-1], in_R, s

    def __iter__(self):
        for level, cls, a, b, in_R, s in self._signed_runs():
            for m in range(a, b + 1):
                yield level.n, cls.label, cls.r, m, level.q_n * m + cls.r, in_R, s

    def csv_text(self):
        """The CSV file as `csv.writer` writes the header and these rows, as
        bytes: the header, then the uint8 row blocks of `_run_text`, one
        signed run after another."""
        yield ",".join(ROW_FIELDS).encode() + b"\r\n"
        for level, cls, a, b, in_R, s in self._signed_runs():
            yield from _run_text(f"{level.n},{cls.label},{cls.r},".encode(), level.q_n, cls.r,
                                 a, b, f",{in_R},{s}\r\n".encode())


#: base of the limbs `_digits` writes q in
LIMB = 10**8
#: m's last four digits are read off `_digit_table`, so a block of
#: `_run_text` ends where m reaches a multiple of GROUP
GROUP = 10**4


def _run_text(head: bytes, qn: int, r: int, a: int, b: int, tail: bytes):
    """The CSV text f"{head}{m},{qn * m + r}{tail}" of m = a..b as (rows, width)
    uint8 arrays of ASCII, one a block of rows.

    A block has at most ROW_SLICE rows and ends where m or q = qn m + r gains
    a digit or m reaches a multiple of GROUP, so m and q keep their decimal
    widths and every column holds one field's byte or one digit.  The block starts
    as its template row repeated: head, str(m) of its first row (the digits
    above the last four stay fixed), and tail.  The last four digits of m are
    a contiguous slice of `_digit_table`; those of q come from `_digits`."""
    m = a
    while m <= b:
        q = qn * m + r
        sm = str(m)
        wm, wq = len(sm), len(str(q))
        end = min(b + 1, m + ROW_SLICE, 10**wm, m - m % GROUP + GROUP,
                  (10**wq - r + qn - 1) // qn)
        rows, low, k = end - m, min(wm, 4), -(-wq // 8)
        c = len(head) + wm + 1
        template = head + sm.encode() + b"," + b"0" * wq + tail
        buf = np.frombuffer(bytearray(template) * rows, np.uint8).reshape(rows, -1)
        lo = m % GROUP
        buf[:, c - 1 - low:c - 1] = _digit_table()[lo:lo + rows].view(np.uint8).reshape(rows, 4)[:, 4 - low:]
        buf[:, c:c + wq] = _digits(_limbs(q, k), _limbs(qn, k), rows)[:, 8 * k - wq:]
        yield buf
        m = end


def _limbs(v: int, k: int) -> list[int]:
    """The k base-LIMB limbs of v < LIMB^k, most significant first."""
    return [v // LIMB ** (k - 1 - i) % LIMB for i in range(k)]


def _digits(start: list[int], step: list[int], rows: int) -> np.ndarray:
    """(rows, 8 k) uint8: the ASCII digits of s + j t, j < rows, in k limbs.

    `start` and `step` hold the k base-B limbs (B = LIMB = 10^8, most
    significant first) of s and t, where s + (rows - 1) t < B^k.  Limb i
    starts as x_i = j t_i + s_i; one carry pass from the least significant
    limb then reduces each limb mod B and adds its carry c_i = x_i // B to
    limb i - 1, which is schoolbook addition, so the value is kept and every
    limb ends in [0, B).

    Every value fits int64, whatever the size of the numbers.  With
    S = ROW_SLICE >= rows, x_i <= (S - 1)(B - 1) + (B - 1) = S (B - 1) at
    first.  The least significant limb takes no carry; if limb i takes a
    carry c <= S - 1, it reaches at most S (B - 1) + S - 1 = S B - 1 and
    passes on a carry of at most S - 1.  So every limb, carry and carry
    times B stays below S B <= 2^62.  A limb is then two 4-digit groups,
    read off `_digit_table`.
    """
    if ROW_SLICE * LIMB > 1 << 62:
        raise ValueError(f"ROW_SLICE = {ROW_SLICE} lets a limb overflow int64")
    x = np.array(step)[:, None] * np.arange(rows, dtype=np.int64) + np.array(start)[:, None]
    for i in range(len(start) - 1, 0, -1):
        carry = x[i] // LIMB
        x[i] -= carry * LIMB
        x[i - 1] += carry
    hi = x // 10**4
    x -= hi * 10**4
    groups = np.stack([hi, x], axis=1).transpose(2, 0, 1)  # (rows, k, 2)
    return _digit_table().take(groups).view(np.uint8).reshape(rows, -1)


@cache
def _digit_table() -> np.ndarray:
    """(10,000,) uint32 whose bytes are the ASCII digits of 0000..9999."""
    g = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    return (g + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]


#: `rotation_screen` widens its enclosure until D >= SCREEN_D, so that
#: |x - L/D| < 2^-60
SCREEN_D = 1 << 60
#: q a chunk of `rotation_screen`
SCREEN_CHUNK = 1 << 14
#: `rotation_screen` takes q < SCREEN_Q_LIMIT, so q*x stays far below 2^52
SCREEN_Q_LIMIT = 1 << 50


def rotation_screen(enc: Enclosure, q_lo: int, q_hi: int):
    """Yield (q, f, e) for q = q_lo..q_hi in chunks of at most SCREEN_CHUNK,
    as float64 arrays with |f - ||q x||| < e, where ||.|| is the distance to
    the nearest integer (so ||q x|| = |q.x|).

    It widens `enc` until D >= 2^60 and takes xf = L / D once; Python's
    int division rounds that correctly.  Then f = |y - rint(y)| with
    y = fl(q xf), and e = q 2^-50.  Proof of the bound, in the standard
    model of float64 arithmetic (unit roundoff u = 2^-53; Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, section 2.2):

    - |xf - L/D| <= 2^-54, as L/D < 1, and |x - L/D| < 1/D <= 2^-60;
    - q < 2^50 is exact in float64 and |y - q xf| <= u q xf <= 2^-53 q (a
      subnormal y errs by at most 2^-1075, which is smaller);
    - y < 2^50 < 2^52, so rint(y) and y - rint(y) are exact, and f = ||y||;
    - ||.|| is 1-Lipschitz, so |f - ||q x||| <= |y - q x|
      < q (2^-53 + 2^-54 + 2^-60) < q 2^-52.

    So the true error is below a quarter of e, and e = q 2^-50 is exact for
    q >= 1.  The spare 3 q 2^-52 covers the roundings of a comparison made
    of a few float operations on f and e, each at most u relative.  A later
    widening of `enc` only narrows x's interval, so the bound still holds
    with the first xf.  Raises ValueError for q_hi >= 2^50.
    """
    if q_hi >= SCREEN_Q_LIMIT:
        raise ValueError(f"q_hi = {q_hi} is past the float screen's limit 2^50")
    while enc.D < SCREEN_D:
        enc.widen()
    xf = enc.L / enc.D
    for lo in range(q_lo, q_hi + 1, SCREEN_CHUNK):
        q = np.arange(lo, min(lo + SCREEN_CHUNK, q_hi + 1), dtype=np.float64)
        y = q * xf
        yield q, np.abs(y - np.rint(y)), q * 2.0**-50


def brute_force_in_R(cf: CFNumber, q_max: int) -> list[tuple[int, int]]:
    """Independent oracle: every (q, sign) with |q.x| * q <= 1, q = 1..q_max,
    by direct scan (no remainder-class shortcut).

    `rotation_screen` gives f with |f - |q.x|| < e for each q, and a q with
    q f > 1 + q e is no hit, as |q.x| > f - e.  The float test keeps every
    hit despite its own three roundings: a hit has q f < 1 + s with
    s = q^2 2^-52 >= 2u (u = 2^-53), and q e = 4 s, so
    fl(q f) <= (1 + u)(1 + s) < (1 + 4 s (1 - u))(1 - u) <= fl(1 + fl(q e)).
    Each survivor is decided exactly on the shared enclosure, which widens
    when its interval cannot tell."""
    enc = Enclosure(cf, 16)
    hits = []
    for q, f, e in rotation_screen(enc, 1, q_max):
        for qq in q[q * f <= 1 + q * e].astype(np.int64).tolist():
            sign = enc.decide(lambda iv: _thinning_sign(enc, qq))
            if sign:
                hits.append((qq, sign))
    return hits


def _thinning_sign(enc: Enclosure, q: int) -> int | None:
    """The sign of q.x if |q.x| * q <= 1, 0 if not, None while the current
    interval cannot tell; equality q |q.x| = 1 is impossible."""
    rec = enc.rotation(q)
    if rec is None:
        return None
    sign, nlo, nhi = rec
    # |q.x| D lies strictly inside (nlo, nhi)
    if q * nhi <= enc.D:
        return sign
    if q * nlo >= enc.D:
        return 0
    return None


def candidate_classes_ok(cf: CFNumber, q: int) -> bool:
    """Whether q falls in a census remainder class of its level."""
    n = 0
    while cf.convergent(n + 1).q <= q:
        n += 1
    qn = cf.convergent(n).q
    if qn == 1:
        return True
    qn1 = cf.convergent(n - 1).q
    return q % qn in {0, qn1 % qn, (2 * qn1) % qn, (qn - qn1) % qn}

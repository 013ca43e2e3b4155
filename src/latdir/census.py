"""Exact census of thinning-region points for the biased continued fraction.

Points (p, q) with |q x - p| * q <= c and q_n <= q < q_{n+1} can only occur
at multipliers q = m q_n + r for the four remainders
r in {0, q_{n-1}, 2 q_{n-1}, q~ := q_n - q_{n-1}}  (division-algorithm census;
validated against a brute-force scan for all q < q_5).  For each class the
membership condition is -1 <= P(m) <= 1 with the quadratic

    P(m) = q(m) * (q(m) x - p(m)),   q(m) = m q_n + r,  p(m) = m p_n + p_r,

so the in-census multipliers form at most two integer intervals per class.
They are located by exact bisection, every comparison decided on one shared
`contfrac.Enclosure` of x that starts at 24 elements and widens on demand,
which keeps the census affordable at levels where enumerating all
a_{n+1} ~ 10^10 candidates would not be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .contfrac import CFNumber, Enclosure, RotationScan, biased_number

CAT_BELOW, CAT_IN, CAT_ABOVE = -1, 0, 1


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
class CensusRow:
    n: int
    r_label: str
    r: int
    m: int
    q: int
    in_R: bool
    sign: int

    def to_obj(self) -> dict:
        return {"n": self.n, "r_label": self.r_label, "r": self.r, "m": self.m,
                "q": str(self.q), "in_R": self.in_R, "sign": self.sign}


class _ClassSolver:
    """Exact category / sign queries for one (level, remainder) class."""

    def __init__(self, enc: Enclosure, q_n: int, p_n: int, r: int, p_r: int):
        self.enc = enc
        self.q_n, self.p_n, self.r, self.p_r = q_n, p_n, r, p_r

    def _qp(self, m: int) -> tuple[int, int]:
        return m * self.q_n + self.r, m * self.p_n + self.p_r

    def category(self, m: int) -> int:
        q, p = self._qp(m)

        def run(iv):
            lo = q * q * iv.lo - q * p
            hi = q * q * iv.hi - q * p
            if hi <= -1:
                return CAT_BELOW
            if lo >= 1:
                return CAT_ABOVE
            if lo >= -1 and hi <= 1:
                return CAT_IN
            return None

        return self.enc.decide(run)

    def sign(self, m: int) -> int:
        q, p = self._qp(m)

        def run(iv):
            if q * iv.lo - p >= 0:
                return 1
            if q * iv.hi - p <= 0:
                return -1
            return None

        return self.enc.decide(run)

    def vertex_window(self) -> tuple[int, int]:
        """Integer window of width <= 2 around the vertex of P(m)."""
        num_u, num_w = -2 * self.q_n * self.r, -(self.q_n * self.p_r + self.r * self.p_n)
        den_u, den_w = 2 * self.q_n * self.q_n, 2 * self.q_n * self.p_n

        def run(iv):
            n_lo, n_hi = sorted((num_u * iv.lo - num_w, num_u * iv.hi - num_w))
            d_lo, d_hi = sorted((den_u * iv.lo - den_w, den_u * iv.hi - den_w))
            if d_lo > 0 or d_hi < 0:
                vals = [n_lo / d_lo, n_lo / d_hi, n_hi / d_lo, n_hi / d_hi]
                a, b = math.floor(min(vals)), math.ceil(max(vals))
                if b - a <= 2:
                    return a, b
            return None

        return self.enc.decide(run)

    # -- structure extraction ------------------------------------------------

    def _runs_monotone(self, u: int, v: int) -> list:
        """Category runs on [u, v] where P is monotone (each category occurs
        in at most one contiguous run, so prefix bisection is sound)."""
        out = []
        a = u
        while a <= v:
            ca = self.category(a)
            if self.category(v) == ca:
                out.append((a, v, ca))
                break
            lo, hi = a, v
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self.category(mid) == ca:
                    lo = mid
                else:
                    hi = mid - 1
            out.append((a, lo, ca))
            a = lo + 1
        return out

    def in_intervals(self, m_lo: int, m_hi: int) -> list:
        """The (at most two) integer intervals with -1 <= P <= 1, sign-split."""
        if m_lo > m_hi:
            return []
        va, vb = self.vertex_window()
        stretches = []
        if va - 1 >= m_lo:
            stretches.append((m_lo, min(va - 1, m_hi), "mono"))
        mid_lo, mid_hi = max(va, m_lo), min(vb, m_hi)
        if mid_lo <= mid_hi:
            stretches.append((mid_lo, mid_hi, "enum"))
        if vb + 1 <= m_hi:
            stretches.append((max(vb + 1, m_lo), m_hi, "mono"))
        if not stretches:
            stretches = [(m_lo, m_hi, "enum")]

        in_runs: list[tuple[int, int]] = []
        for a, b, kind in stretches:
            if a > b:
                continue
            if kind == "enum":
                runs = [(m, m, self.category(m)) for m in range(a, b + 1)]
            else:
                runs = self._runs_monotone(a, b)
            for ra, rb, cat in runs:
                if cat != CAT_IN:
                    continue
                if in_runs and in_runs[-1][1] + 1 == ra:
                    in_runs[-1] = (in_runs[-1][0], rb)
                else:
                    in_runs.append((ra, rb))

        pieces = []
        for a, b in in_runs:
            sa, sb = self.sign(a), self.sign(b)
            if sa == sb:
                pieces.append((a, b, sa))
                continue
            # the error eps(m) is linear in m: a single sign flip inside the run
            lo, hi = a, b
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self.sign(mid) == sa:
                    lo = mid
                else:
                    hi = mid - 1
            pieces.append((a, lo, sa))
            pieces.append((lo + 1, b, sb))
        return pieces


@dataclass
class CensusReport:
    n_max: int
    levels: list
    rows: list
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
        """All (q, sign) with q <= q_max, expanded from the interval pieces."""
        out = []
        for level in self.levels:
            qn = level.q_n
            for cls in level.classes:
                for a, b, s in cls.pieces:
                    for m in range(a, b + 1):
                        q = qn * m + cls.r
                        if q <= q_max:
                            out.append((q, s))
        return sorted(out)


ROW_FULL_CAP = 512      # emit every candidate row when a_{n+1} is this small
ROW_TOTAL_CAP = 500_000


class RowCapExceeded(RuntimeError):
    """The census rows would pass ROW_TOTAL_CAP; rows are never truncated."""


def build_census(n_max: int, cf: CFNumber | None = None, *, include_rows: bool = True) -> CensusReport:
    """Levels 0..n_max of the biased census, exactly.

    Level 0 (1 <= q < q_1) is scanned directly; higher levels go through the
    quadratic-interval solver.  Requires the remainder classes to be distinct
    (2 q_{n-1} < q_n), which holds whenever all elements are >= 2.
    """
    if n_max < 1 or n_max % 2 == 0:
        raise ValueError("n_max must be a positive odd index")
    if n_max > 9:
        raise ValueError("n_max above 9 is out of the desk-scale budget")
    cf = cf or biased_number()
    enc = Enclosure(cf, 24)
    levels: list[CensusLevel] = []

    # level 0: q in [1, q_1)
    a1 = cf.element(1)
    scan = RotationScan(cf, max(a1 - 1, 1))
    zero_cls = ClassPieces("unit", 0, 0, 1, a1 - 1)
    for q in range(1, a1):
        if scan.in_thinning(q, 1):
            s = scan.sign(q)
            if zero_cls.pieces and zero_cls.pieces[-1][1] == q - 1 and zero_cls.pieces[-1][2] == s:
                a, _, _ = zero_cls.pieces[-1]
                zero_cls.pieces[-1] = (a, q, s)
            else:
                zero_cls.pieces.append((q, q, s))
    levels.append(CensusLevel(0, 1, 0, a1, [zero_cls]))

    for n in range(1, n_max + 1):
        cn, cn1 = cf.convergent(n), cf.convergent(n - 1)
        a_next = cf.element(n + 1)
        qt, pt = cn.q - cn1.q, cn.p - cn1.p
        remainders = {0, cn1.q, 2 * cn1.q, qt}
        if len(remainders) != 4 or not 2 * cn1.q < cn.q:
            raise ValueError(
                f"remainder classes collide at level {n}; the census needs "
                "2 q_(n-1) < q_n and four distinct remainders (elements >= 4 suffice)")
        class_defs = [
            ("0", 0, 0, 1, a_next),
            ("q_{n-1}", cn1.q, cn1.p, 1, a_next - 1),
            ("2q_{n-1}", 2 * cn1.q, 2 * cn1.p, 1, a_next - 1),
            ("q~", qt, pt, 1, a_next - 1),
        ]
        classes = []
        for label, r, p_r, m_lo, m_hi in class_defs:
            solver = _ClassSolver(enc, cn.q, cn.p, r, p_r)
            cls = ClassPieces(label, r, p_r, m_lo, m_hi)
            cls.pieces = solver.in_intervals(m_lo, m_hi)
            classes.append(cls)
        levels.append(CensusLevel(n, cn.q, cn.p, a_next, classes))

    l_values = {lv.n: lv.L for lv in levels if lv.n % 2 == 1}
    thresholds = [lv.top_zero_q for lv in levels if lv.n % 2 == 1 and lv.top_zero_q]
    rows = _materialize_rows(levels, enc) if include_rows else []
    return CensusReport(n_max, levels, rows, thresholds, l_values)


def _materialize_rows(levels, enc: Enclosure) -> list:
    rows: list[CensusRow] = []
    for level in levels:
        if level.n == 0:
            cls = level.classes[0]
            in_map = {}
            for a, b, s in cls.pieces:
                for m in range(a, b + 1):
                    in_map[m] = s
            scan = RotationScan(enc.cf, max(cls.m_hi, 1)) if cls.m_hi >= 1 else None
            for m in range(cls.m_lo, cls.m_hi + 1):
                s = in_map.get(m, scan.sign(m) if scan else 1)
                rows.append(CensusRow(0, "unit", 0, m, m, m in in_map, s))
            continue
        full = level.a_next + 1 <= ROW_FULL_CAP
        for cls in level.classes:
            solver = _ClassSolver(enc, level.q_n, level.p_n, cls.r, cls.p_r)
            if full:
                in_map = {}
                for a, b, s in cls.pieces:
                    for m in range(a, b + 1):
                        in_map[m] = s
                ms = range(cls.m_lo, cls.m_hi + 1)
                for m in ms:
                    q = level.q_n * m + cls.r
                    s = in_map.get(m) or solver.sign(m)
                    rows.append(CensusRow(level.n, cls.label, cls.r, m, q, m in in_map, s))
            else:
                # big level: only the in-census points plus the first excluded
                # candidate after each piece (witnesses the cutoff)
                for a, b, s in cls.pieces:
                    for m in range(a, b + 1):
                        q = level.q_n * m + cls.r
                        rows.append(CensusRow(level.n, cls.label, cls.r, m, q, True, s))
                        _check_row_cap(rows)
                    if b + 1 <= cls.m_hi:
                        q = level.q_n * (b + 1) + cls.r
                        rows.append(CensusRow(level.n, cls.label, cls.r, b + 1, q,
                                              False, solver.sign(b + 1)))
            _check_row_cap(rows)
    return rows


def _check_row_cap(rows: list) -> None:
    if len(rows) > ROW_TOTAL_CAP:
        raise RowCapExceeded(f"census rows exceed ROW_TOTAL_CAP = {ROW_TOTAL_CAP}")


def brute_force_in_R(cf: CFNumber, q_max: int, c=1) -> list[tuple[int, int]]:
    """Independent oracle: every (q, sign) with |q.x| * q <= c, q = 1..q_max,
    by direct exact scan (no remainder-class shortcut)."""
    scan = RotationScan(cf, q_max)
    return [(q, scan.sign(q)) for q in range(1, q_max + 1) if scan.in_thinning(q, c)]


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

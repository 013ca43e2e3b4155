"""Exact continued-fraction arithmetic for irrationals in (0, 1).

A number x = [0; a_1, a_2, ...] is represented by its element sequence,
indexed from 1 and materialized lazily from a rule.  Everything here is
arbitrary-precision integer / rational arithmetic: the denominators of
interest grow like n^n and leave machine range around n = 8, so floats
are never used for decisions in this module.  Every exact decision about x
runs through one `Enclosure`, which tightens the convergent enclosure of x
until the decision is made.  `worley_walk` is the one exact engine that
decides which q are approximates; the exact counts of `lattice` and the
census of `census` both consume it.

Conventions: q_{-1} = 0, p_{-1} = 1, p_0 = 0, q_0 = 1, and
q_n = a_n q_{n-1} + q_{n-2} (same recurrence for p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

#: Hard cap on how many elements an `Enclosure` may materialize.  A sign
#: query on an irrational terminates long before this; hitting the cap
#: signals misuse (an effectively rational input or an exhausted prefix).
PREFIX_CAP = 10_000

HALF = Fraction(1, 2)


class PrefixCapExceeded(RuntimeError):
    """Enclosure refinement needed more than PREFIX_CAP elements."""


class ElementsExhausted(RuntimeError):
    """A finite element prefix ran out and no tail rule was supplied."""


@dataclass(frozen=True)
class Convergent:
    """The n-th convergent p/q of a continued fraction (n >= -1)."""

    n: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints.

    Used as a guaranteed enclosure of a real quantity; callers shrink it by
    extending the underlying continued-fraction prefix.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def strictly_inside(self, lo, hi) -> bool:
        """True if this enclosure lies in the open interval (lo, hi)."""
        return lo < self.lo and self.hi < hi

    def abs(self) -> "RationalInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return RationalInterval(-self.hi, -self.lo)
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

    def scaled(self, k) -> "RationalInterval":
        k = Fraction(k)
        if k >= 0:
            return RationalInterval(self.lo * k, self.hi * k)
        return RationalInterval(self.hi * k, self.lo * k)

    def shifted(self, c) -> "RationalInterval":
        c = Fraction(c)
        return RationalInterval(self.lo + c, self.hi + c)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


class CFNumber:
    """An irrational x = [0; a_1, a_2, ...] with a lazily grown prefix.

    ``rule(n)`` must return the n-th element (n >= 1) as a positive integer.
    The materialized prefix only grows, and extension is idempotent.
    """

    def __init__(self, rule: Callable[[int], int] | None, *, elements: Sequence[int] = (), name: str = ""):
        self._rule = rule
        self.name = name
        # index i of these lists holds data for n = i - 1 (so list[0] is n = -1)
        self._a: list[int] = [0, 0]  # placeholders for n = -1, 0 (no elements there)
        self._p: list[int] = [1, 0]
        self._q: list[int] = [0, 1]
        for k, a in enumerate(elements, start=1):
            self._append(k, int(a))

    def _append(self, n: int, a: int) -> None:
        if a < 1:
            raise ValueError(f"continued fraction element a_{n} = {a} must be >= 1")
        self._a.append(a)
        self._p.append(a * self._p[-1] + self._p[-2])
        self._q.append(a * self._q[-1] + self._q[-2])

    def _ensure(self, n: int) -> None:
        """Materialize elements 1..n (and convergents up to index n)."""
        while len(self._a) - 2 < n:
            k = len(self._a) - 1
            if self._rule is None:
                raise ElementsExhausted(f"element a_{k} requested but only a finite prefix was given")
            self._append(k, int(self._rule(k)))

    def element(self, n: int) -> int:
        if n < 1:
            raise ValueError("elements are indexed from 1")
        self._ensure(n)
        return self._a[n + 1]

    def elements(self, n: int) -> list[int]:
        self._ensure(n)
        return self._a[2:n + 2]

    def convergent(self, n: int) -> Convergent:
        if n < -1:
            raise ValueError("convergent index must be >= -1")
        self._ensure(max(n, 0))
        return Convergent(n, self._p[n + 1], self._q[n + 1])

    def convergents(self, n_max: int) -> list[Convergent]:
        """Convergents 0..n_max (use convergent(-1) for the seed value)."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self._ensure(n_max)
        return [Convergent(n, self._p[n + 1], self._q[n + 1]) for n in range(n_max + 1)]

    def enclosure_at(self, m: int) -> RationalInterval:
        """The enclosure of x by consecutive convergents m, m+1 (width 1/(q_m q_{m+1}))."""
        self._ensure(m + 1)
        a = Fraction(self._p[m + 1], self._q[m + 1])
        b = Fraction(self._p[m + 2], self._q[m + 2])
        return RationalInterval(min(a, b), max(a, b))

    def enclose(self, width_bound) -> RationalInterval:
        """Smallest convergent-pair enclosure with width <= width_bound."""
        bound = Fraction(width_bound)
        if bound <= 0:
            raise ValueError("width_bound must be positive")
        m = 0
        while True:
            self._ensure(m + 1)
            if self._q[m + 1] * self._q[m + 2] * bound >= 1:
                return self.enclosure_at(m)
            m += 1
            if m > PREFIX_CAP:
                raise PrefixCapExceeded("enclose() exceeded the element prefix cap")

    def __float__(self) -> float:
        return float(self.enclose(Fraction(1, 10**20)).midpoint)

    @classmethod
    def from_elements(cls, elements: Sequence[int | str], rule: Callable[[int], int] | None = None) -> "CFNumber":
        return cls(rule, elements=[int(e) for e in elements])

    def __repr__(self) -> str:
        known = len(self._a) - 2
        head = ",".join(str(a) for a in self._a[2:min(known, 6) + 2])
        label = self.name or "CFNumber"
        return f"{label}[0;{head},...]"


# -- the element sequences used throughout ----------------------------------

def biased_elements(n: int) -> int:
    """Element rule 4 (n odd) / n^n (n even): odd-indexed elements stay small
    while even-indexed ones explode, which is what skews the error signs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4 if n % 2 == 1 else n**n


def biased_number() -> CFNumber:
    return CFNumber(biased_elements, name="biased")


def constant_cf(a: int, name: str = "") -> CFNumber:
    """[0; a, a, a, ...]; a = 1 gives the golden-type number."""
    if a < 1:
        raise ValueError("a must be >= 1")
    return CFNumber(lambda n: a, name=name or f"[0;{a}bar]")


def cf_product(x1: CFNumber, x2: CFNumber) -> CFNumber:
    """Parity-selective interleave of two element sequences.

    The result takes its odd-indexed elements from x1 and its even-indexed
    elements from x2, each at its original index, so
    constant_cf(4) # (a_n = n^n) reproduces biased_number().
    """
    return CFNumber(lambda n: x1.element(n) if n % 2 == 1 else x2.element(n))


class Enclosure:
    """The enclosure of x by convergents `terms`, `terms + 1`, refined on demand.

    The one refinement loop of the exact layer: `decide(fn)` runs `fn` on the
    current interval and doubles the depth (clamped to `max_terms`) until `fn`
    returns something other than None.  The depth only grows, so an instance
    shared by many queries builds each interval once.  The interval is also
    kept in integers, x in (L/D, (L+1)/D), for `rotation` and `rotations`.
    """

    def __init__(self, cf: CFNumber, terms: int, max_terms: int = PREFIX_CAP):
        self.cf = cf
        self.max_terms = max_terms
        self._set(min(terms, max_terms))

    def _set(self, terms: int) -> None:
        iv = self.cf.enclosure_at(terms)
        L = iv.lo.numerator * iv.hi.denominator
        # consecutive convergents: the cross difference is exactly 1
        if iv.hi.numerator * iv.lo.denominator - L != 1:
            raise ValueError(f"enclosure ({iv.lo}, {iv.hi}) is not bounded by consecutive convergents")
        self.terms, self.interval = terms, iv
        self.L, self.D = L, iv.lo.denominator * iv.hi.denominator

    def widen(self) -> None:
        if self.terms >= self.max_terms:
            raise PrefixCapExceeded(f"undecided after {self.terms} elements (effectively rational input?)")
        self._set(min(max(1, 2 * self.terms), self.max_terms))

    def decide(self, fn: Callable[[RationalInterval], object]):
        while True:
            out = fn(self.interval)
            if out is not None:
                return out
            self.widen()

    def rotation(self, q: int) -> tuple[int, int, int] | None:
        """(sign of q.x, nlo, nhi) with |q.x| strictly inside (nlo/D, nhi/D) on
        the current interval, in integers; None while the nearest integer to
        q*x or the sign is undecided there."""
        L, D = self.L, self.D
        r = (2 * q * L + D) // (2 * D)
        if (2 * q * (L + 1) + D) // (2 * D) != r:
            return None
        nlo = q * L - r * D
        nhi = nlo + q
        if nlo >= 0:
            return (1, nlo, nhi)
        if nhi <= 0:
            return (-1, -nhi, -nlo)
        return None

    def rotations(self, q_max: int):
        """Yield `rotation(q)` for q = 1..q_max, None entries included, on the
        interval current when the scan starts.

        It keeps rem = qL - rD in [-D/2, D/2), r the nearest integer to qL/D,
        so each q costs one addition of L and at most one subtraction of D,
        where `rotation` divides two big integers.  The nearest integer is
        undecided when 2 (rem + q) >= D, the sign when rem < 0 < rem + q."""
        L, D = self.L, self.D
        half = (D + 1) // 2  # 2 v >= D  <=>  v >= half
        rem = 0
        for q in range(1, q_max + 1):
            rem += L
            if rem >= half:
                rem -= D
            nhi = rem + q
            if nhi >= half:
                yield None
            elif rem >= 0:
                yield (1, rem, nhi)
            elif nhi <= 0:
                yield (-1, -nhi, -rem)
            else:
                yield None


def worley_walk(enc: Enclosure, T: int, C: Fraction):
    """Yield (q', sign of q'.x, G) once per Worley candidate q' <= T, where G
    is the last multiple g q' <= T with g^2 q' |q'.x| < C (0 if none).

    Every approximate (p, q) with |q x - p| < C/q and q >= 2C is such a
    multiple: only the nearest p can hit there, and (p, q) = g (p', q') with
    gcd(p', q') = 1 and g^2 q'|q'x - p'| < C.  By Worley's theorem
    (J. Austral. Math. Soc. A 31, 1981) such a p'/q' with
    |x - p'/q'| < C/q'^2 is (r p_{m+1} +- s p_m) / (r q_{m+1} +- s q_m) for
    some level m >= -1 and integers r, s >= 0 with r s < 2C.  The pair has
    gcd(r, s) as common factor, so coprime (r, s), plus (1, 0) and (0, 1),
    give every q'.  Below 2C the nearest p always hits and farther p may
    too; a caller that counts pairs (p, q) adds those itself.

    Levels are walked while q_m <= T.  That misses nothing: at a level n with
    q_n > T, (0, 1), (1, 0) and the + candidates exceed T, and with
    a = a_{n+1}, r q_{n+1} - s q_n = (r a - s) q_n + r q_{n-1} is > T when
    r a > s, is q_{n-1} (r = 1, s = a), the (0, 1) candidate of level n - 1,
    when r a = s, and is -(k q_n - r q_{n-1}) with k = s - r a, k r < s r < 2C
    and gcd(k, r) = 1, a candidate of level n - 1, when r a < s.  Stepping
    down reaches the last walked level.  So the walk costs O(log T) levels of
    O(C log C) candidates, each decided once on the shared enclosure `enc`.
    """
    cf = enc.cf
    pairs = _worley_pairs(C)
    seen: set[int] = set()
    m = -1
    while cf.convergent(m).q <= T:
        lower, upper = cf.convergent(m).q, cf.convergent(m + 1).q
        for r, s in pairs:
            for qq in (r * upper + s * lower, abs(r * upper - s * lower)):
                if 0 < qq <= T and qq not in seen:
                    seen.add(qq)
                    yield (qq, *enc.decide(lambda iv: _multiples(enc, qq, T // qq, C)))
        m += 1


def _worley_pairs(C: Fraction) -> list[tuple[int, int]]:
    """(1, 0), (0, 1) and every coprime r, s >= 1 with r s < 2C."""
    pairs = [(1, 0), (0, 1)]
    r = 1
    while r < 2 * C:
        s = 1
        while r * s < 2 * C:
            if math.gcd(r, s) == 1:
                pairs.append((r, s))
            s += 1
        r += 1
    return pairs


def _multiples(enc: Enclosure, q: int, cap: int, C: Fraction) -> tuple[int, int] | None:
    """(sign of q.x, G) with G = min(cap, largest g with g^2 q |q.x| < C), or
    None while the current interval cannot decide them."""
    rec = enc.rotation(q)
    if rec is None:
        return None
    sign, nlo, nhi = rec
    # |q.x| D lies strictly inside (nlo, nhi): g^2 q |q.x| < C holds for
    # g^2 q nhi <= C D and fails for g^2 q nlo >= C D
    cd = C.numerator * enc.D
    if cd <= 0:
        return sign, 0
    sure = math.isqrt(cd // (q * nhi * C.denominator))
    maybe = math.isqrt((cd - 1) // (q * nlo * C.denominator)) if nlo else cap
    if min(sure, cap) != min(maybe, cap):
        return None
    return sign, min(sure, cap)


def rotation_value(cf: CFNumber, q: int, *, max_terms: int = PREFIX_CAP) -> tuple[int, RationalInterval]:
    """Exact sign and enclosure of q.x, the representative of q*x in (-1/2, 1/2).

    The enclosure is refined until the nearest integer to q*x is pinned down
    and the representative's sign is determined; both always happen for an
    irrational x.
    """
    if q < 1:
        raise ValueError("q must be >= 1")

    def decide(iv: RationalInterval):
        lo, hi = q * iv.lo, q * iv.hi
        r = math.floor(lo + HALF)
        if math.floor(hi + HALF) != r:
            return None
        rep = RationalInterval(lo - r, hi - r)
        if rep.lo > 0:
            return (1, rep)
        if rep.hi < 0:
            return (-1, rep)
        return None

    return Enclosure(cf, 8, max_terms).decide(decide)


def convergent_rotation(cf: CFNumber, n: int) -> tuple[int, RationalInterval]:
    """Sign and enclosure of the signed convergent error q_n*x - p_n.

    For n >= 1 this equals the circle representative of q_n*x; for n = 0 it
    is x itself (which may exceed 1/2, where the representative differs).
    """
    c = cf.convergent(n)

    def decide(iv: RationalInterval):
        err = iv.scaled(c.q).shifted(-c.p)
        if err.lo > 0 or err.hi < 0:
            sign = 1 if err.lo > 0 else -1
            if err.width * 10**9 <= err.abs().lo:
                return (sign, err)
        return None

    return Enclosure(cf, 8).decide(decide)


def error_ratio_bounds(cf: CFNumber, n: int) -> RationalInterval:
    """Exact enclosure of |q_{n-1}.x| / |q_n.x|.

    The true ratio sits strictly between a_{n+1}/2 and a_{n+1} + 2; the
    enclosure is shrunk far enough for callers to verify that containment.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cn1, cn = cf.convergent(n - 1), cf.convergent(n)

    def decide(iv: RationalInterval):
        num = iv.scaled(cn1.q).shifted(-cn1.p).abs()
        den = iv.scaled(cn.q).shifted(-cn.p).abs()
        if num.lo <= 0 or den.lo <= 0:
            return None
        ratio = RationalInterval(num.lo / den.hi, num.hi / den.lo)
        if ratio.width * 10**9 <= ratio.lo:
            return ratio
        return None

    return Enclosure(cf, 8).decide(decide)


class RotationScan:
    """Exact circle-rotation data q.x for every q = 1..q_max at once.

    A brute-force oracle, not a counter: it holds one record per q, so its
    memory grows with q_max.  No code in `latdir` calls it.  It stays only as
    the tests' independent reference for the exact approximate counts, the
    census, the census oracle `census.brute_force_in_R` and acceptance
    criterion 3, which all screen with `census.rotation_screen` or walk with
    `worley_walk` instead.  The records come from `Enclosure.rotations`, one
    addition per q, on one shared enclosure; a query the current enclosure
    cannot decide widens it, and the records are rebuilt on the tighter
    interval.  It stays in this module because bench/tracing.py wraps its
    constructor.
    """

    def __init__(self, cf: CFNumber, q_max: int, *, start_terms: int = 16, max_terms: int = PREFIX_CAP):
        self.q_max = int(q_max)
        self.enclosure = Enclosure(cf, start_terms, max_terms)
        self._iv = None
        self.enclosure.decide(self._records_on)

    def _records_on(self, iv: RationalInterval) -> list | None:
        """The records on `iv`, rebuilt when the interval changed; None while
        some q is undecided there."""
        if iv is not self._iv:
            enc = self.enclosure
            records = list(enc.rotations(self.q_max))
            if None in records:
                return None
            self._iv, self._D, self._records = iv, enc.D, records
        return self._records

    def sign(self, q: int) -> int:
        """Exact sign of q.x (the representative of q*x in (-1/2, 1/2))."""
        return self._records[q - 1][0]

    def in_thinning(self, q: int, c=1) -> bool:
        """Whether |q.x| * q <= c; equality is impossible for an irrational x,
        so strict and non-strict versions coincide."""
        if not isinstance(c, Fraction):
            c = Fraction(c)

        def run(iv):
            records = self._records_on(iv)
            if records is None:
                return None
            _, alo, ahi = records[q - 1]
            if q * ahi * c.denominator <= c.numerator * self._D:
                return True
            if q * alo * c.denominator >= c.numerator * self._D:
                return False
            return None

        return self.enclosure.decide(run)

    def abs_less(self, q1: int, q2: int) -> bool:
        """Exact |q1.x| < |q2.x| (q1 != q2)."""
        if q1 == q2:
            return False

        def run(iv):
            records = self._records_on(iv)
            if records is None:
                return None
            _, a1, b1 = records[q1 - 1]
            _, a2, b2 = records[q2 - 1]
            if b1 <= a2:
                return True
            if b2 <= a1:
                return False
            return None

        return self.enclosure.decide(run)

"""Properties of the counting mathematics itself, not of pinned numbers:
the symmetry x -> -x, additivity of dyadic shells, and a brute-force oracle
for float approximates that includes targets grazing the boundary."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latdir import lattice as lm
from latdir.lattice import (RegionSpec, count_approximates, count_region,
                            lattice_from_x, shell_count)
from latdir.sphere import Hemisphere, SignSet

MINUS = SignSet(frozenset({-1}))
PLUS = SignSet(frozenset({1}))

unit_floats = st.floats(0.0, 1.0, exclude_max=True)
norms = st.sampled_from(["sup", "euclidean"])


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-3.0, 3.0), T=st.integers(1, 20_000), C=st.sampled_from([1.0, 2.5]), norm=norms)
def test_negating_x_swaps_error_signs(x, T, C, norm):
    # q(-x) - (-p) = -(qx - p) bit for bit, so every approximate survives with
    # its error sign flipped
    plain, mirrored = (count_approximates(v, T, norm=norm, C=C) for v in (x, -x))
    assert (plain.total, plain.degenerate) == (mirrored.total, mirrored.degenerate)
    if plain.degenerate:
        return
    assert count_approximates(-x, T, norm=norm, C=C, A=MINUS).in_A == \
        count_approximates(x, T, norm=norm, C=C, A=PLUS).in_A
    assert count_approximates(-x, T, norm=norm, C=C, A=PLUS).in_A == \
        count_approximates(x, T, norm=norm, C=C, A=MINUS).in_A


@settings(max_examples=40, deadline=None)
@given(x=st.lists(unit_floats, min_size=1, max_size=2), N=st.integers(1, 11),
       c=st.floats(0.25, 3.0), norm=norms, with_A=st.booleans())
def test_horospherical_shells_tile_P(x, N, c, norm, with_A):
    d = len(x)
    lat = lattice_from_x(x)
    A = (MINUS if d == 1 else Hemisphere((1.0, 0.0))) if with_A else None
    shells = [shell_count(lat, i, c=c, A=A, norm=norm) for i in range(1, N + 1)]
    direct = count_region(lat, RegionSpec("P", d, T=float(2**N), c=c, norm=norm, A=A))
    assert sum(s.total for s in shells) == direct.total
    assert sum(s.degenerate for s in shells) == direct.degenerate
    if with_A:
        assert sum(s.in_A for s in shells) == direct.in_A


def _v1_norm(v, norm):
    return max(abs(c) for c in v) if norm == "sup" else math.sqrt(sum(c * c for c in v))


def oracle_approximates(x: list, T: int, C: float, norm: str) -> list:
    """(q, q x - p) for every q <= T and every p near q x, with the float
    predicate of count_approximates."""
    d = len(x)
    rho = C * np.arange(1, T + 1, dtype=float) ** (-1.0 / d)
    hits = []
    for q in range(1, T + 1):
        r = float(rho[q - 1])
        windows = [range(math.floor(q * xj - r) - 1, math.floor(q * xj + r) + 2) for xj in x]
        for p in itertools.product(*windows):
            v = tuple(q * xj - pj for xj, pj in zip(x, p))
            if _v1_norm(v, norm) < r:
                hits.append((q, v))
    return hits


def _check_against_oracle(x, T, C, norm):
    res = count_approximates(np.array(x), T, norm=norm, C=C, want_witnesses=True)
    assert [(q, v) for q, v, _ in res.witnesses] == oracle_approximates(x, T, C, norm)
    assert res.total == len(res.witnesses)


@settings(max_examples=30, deadline=None)
@given(x=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2), T=st.integers(1, 3000),
       C=st.sampled_from([0.5, 1.0, 2.5]), norm=norms)
def test_approximates_match_brute_force(x, T, C, norm):
    _check_against_oracle(x, T, C, norm)


def _graze(q0, p0, u, rho, inside):
    """x with (q0 x - p0) along u, stepped in from |q0 x - p0| = rho by ulps of x
    until `inside` accepts q0 x - p0: within 1e-12 of the boundary."""
    x = [(pj + rho * uj) / q0 for pj, uj in zip(p0, u)]
    while not inside([q0 * xj - pj for xj, pj in zip(x, p0)]):
        x[0] -= math.copysign(math.ulp(max(abs(x[0]), 1.0 / q0)), u[0])
    assert abs(abs(q0 * x[0] - p0[0]) - rho * abs(u[0])) < 1e-12
    return x


def _direction(d, norm, data):
    u = [data.draw(st.sampled_from([-1.0, 1.0]))]
    u += data.draw(st.lists(st.floats(-0.5, 0.5), min_size=d - 1, max_size=d - 1))
    return [uj / _v1_norm(u, norm) for uj in u]


# Approximates at q0 = SHELL_RATIO^k, where a shell opens, graze the edge of
# the flowed box.  The flow a = q0^(1/d) is exact at d = 1; at d = 2 and 3 it
# is exact at some k and rounds at others (8^(1/2) and 64^(1/3) at ratio 8).
@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), k=st.integers(0, 2), C=st.sampled_from([1.0, 2.5]), norm=norms,
       data=st.data())
def test_boundary_targets_match_brute_force(d, k, C, norm, data):
    q0 = lm.SHELL_RATIO**k
    p0 = data.draw(st.lists(st.integers(-3 * q0, 3 * q0), min_size=d, max_size=d))
    rho = float((C * np.array([float(q0)]) ** (-1.0 / d))[0])
    x = _graze(q0, p0, _direction(d, norm, data), rho, lambda v: _v1_norm(v, norm) < rho)
    _check_against_oracle(x, q0 + data.draw(st.integers(0, 20)), C, norm)


def oracle_region(x: list, spec: RegionSpec):
    """Every (q x - p, q) with q in the window and p near q x, classified by
    the region predicate with its exact recheck."""
    d = spec.d
    lo, hi, strict = spec.v2_window()
    pts, ns = [], []
    for q in range(math.floor(lo) + 1 if strict else math.ceil(lo), math.floor(hi) + 1):
        r = (spec.c / q) ** (1.0 / d)
        windows = [range(math.floor(q * xj - r) - 1, math.floor(q * xj + r) + 2) for xj in x]
        for p in itertools.product(*windows):
            pts.append([q * xj - pj for xj, pj in zip(x, p)] + [float(q)])
            ns.append([-pj for pj in p] + [q])
    return lm._count_from_points(np.array(pts).reshape(-1, d + 1), spec,
                                 np.array(ns, dtype=np.int64).reshape(-1, d + 1), lattice_from_x(x),
                                 want_witnesses=True)


# The shell window q0 <= q < 2 q0 opens at an arbitrary q0, so the flow by
# q0^(1/d) rounds and the grazing point can land just outside the unpadded box.
@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), q0=st.integers(2, 400), c=st.sampled_from([1.0, 2.5]), norm=norms,
       data=st.data())
def test_region_boundary_targets_match_brute_force(d, q0, c, norm, data):
    p0 = data.draw(st.lists(st.integers(-3 * q0, 3 * q0), min_size=d, max_size=d))
    x = _graze(q0, p0, _direction(d, norm, data), (c / q0) ** (1.0 / d),
               lambda v: c - _v1_norm(v, norm) ** d * q0 >= 0.0)
    spec = RegionSpec("Q", d, T=2.0 * q0 - 1.0, c=c, norm=norm)  # q0 <= q <= 2 q0 - 1
    got, want = count_region(lattice_from_x(x), spec, want_witnesses=True), oracle_region(x, spec)
    assert (got.total, got.degenerate, got.witnesses) == (want.total, want.degenerate, want.witnesses)

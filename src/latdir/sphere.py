"""Direction sets on the unit sphere S^{d-1} with zero-measure boundary.

Supported shapes: sign subsets of S^0, spherical caps, hemispheres, their
complements, and the full sphere.  Each set knows its exact normalized
surface measure, so counting experiments can compare empirical direction
frequencies against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_TOL = 1e-12


def ball_volume(d: int, r: float, norm: str = "euclidean") -> float:
    """Volume of the radius-r ball in R^d for the given norm."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    if norm == "euclidean":
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r**d
    if norm == "sup":
        return (2.0 * r) ** d
    raise ValueError(f"unknown norm {norm!r}")


def _cap_measure(d: int, angle: float) -> float:
    """Normalized measure of a cap of angular radius `angle` on S^{d-1}, d >= 2.

    It is I_{d-2}(angle) / I_{d-2}(pi) with I_m(a) = int_0^a sin^m, from
    I_0 = a, I_1 = 1 - cos a and I_m = ((m-1) I_{m-2} - sin^{m-1} a cos a) / m.
    """
    s, c = math.sin(angle), math.cos(angle)
    part, full = (angle, math.pi) if d % 2 == 0 else (1.0 - c, 2.0)
    for m in range(2 + d % 2, d - 1, 2):
        part = ((m - 1) * part - s ** (m - 1) * c) / m
        full = (m - 1) * full / m
    return part / full


class DirectionSet:
    """Measurable A in S^{d-1} with boundary of measure zero."""

    dim: int

    def contains(self, u) -> bool:
        u = np.asarray(u, dtype=float).reshape(-1)
        return bool(self.contains_many(u[None, :])[0])

    def contains_many(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains_sign(self, s: int) -> bool:
        """Membership for d = 1, where directions are just signs."""
        return self.contains(np.array([float(s)]))

    def measure(self) -> float:
        raise NotImplementedError

    def to_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class SignSet(DirectionSet):
    """Subset of S^0 = {-1, +1} (only meaningful for d = 1)."""

    signs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "signs", frozenset(int(s) for s in self.signs))
        if not self.signs <= {-1, 1}:
            raise ValueError("sign sets may only contain -1 and +1")

    dim = 1

    def contains_many(self, U):
        U = np.asarray(U, dtype=float)
        out = np.zeros(U.shape[0], dtype=bool)
        if 1 in self.signs:
            out |= U[:, 0] > 0
        if -1 in self.signs:
            out |= U[:, 0] < 0
        return out

    def measure(self) -> float:
        return len(self.signs) / 2.0

    def to_obj(self):
        return {"kind": "sign", "signs": sorted(self.signs)}


def _unit(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=float).reshape(-1)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > UNIT_TOL:
        if n == 0.0:
            raise ValueError("axis/center must be nonzero")
        v = v / n
    return v


@dataclass(frozen=True)
class Hemisphere(DirectionSet):
    """Open hemisphere {u : axis . u > 0}."""

    axis: tuple

    def __post_init__(self):
        object.__setattr__(self, "axis", tuple(_unit(self.axis)))

    @property
    def dim(self):
        return len(self.axis)

    def contains_many(self, U):
        return np.asarray(U, dtype=float) @ np.array(self.axis) > 0.0

    def measure(self) -> float:
        return 0.5

    def to_obj(self):
        return {"kind": "hemisphere", "axis": list(self.axis)}


@dataclass(frozen=True)
class Cap(DirectionSet):
    """Open cap {u : center . u > cos(angle)}, angle in (0, pi), d >= 2."""

    center: tuple
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_unit(self.center)))
        if not 0.0 < self.angle < math.pi:
            raise ValueError("cap angle must lie in (0, pi)")
        if len(self.center) < 2:
            raise ValueError("caps need ambient dimension d >= 2 (use SignSet for d = 1)")

    @property
    def dim(self):
        return len(self.center)

    def contains_many(self, U):
        return np.asarray(U, dtype=float) @ np.array(self.center) > math.cos(self.angle)

    def measure(self) -> float:
        return _cap_measure(self.dim, self.angle)

    def to_obj(self):
        return {"kind": "cap", "center": list(self.center), "angle": self.angle}


@dataclass(frozen=True)
class Complement(DirectionSet):
    inner: DirectionSet

    @property
    def dim(self):
        return self.inner.dim

    def contains_many(self, U):
        return ~self.inner.contains_many(U)

    def measure(self) -> float:
        return 1.0 - self.inner.measure()

    def to_obj(self):
        return {"kind": "complement", "inner": self.inner.to_obj()}


@dataclass(frozen=True)
class FullSphere(DirectionSet):
    """All of S^{d-1}; handy as the trivial direction restriction."""

    d: int

    @property
    def dim(self):
        return self.d

    def contains_many(self, U):
        return np.ones(np.asarray(U).shape[0], dtype=bool)

    def measure(self) -> float:
        return 1.0

    def to_obj(self):
        return {"kind": "full", "d": self.d}


def full_sphere(d: int) -> DirectionSet:
    if d == 1:
        return SignSet(frozenset({-1, 1}))
    return FullSphere(d)


def parse_direction_set(text: str, d: int) -> DirectionSet | None:
    """CLI syntax: 'sign:-1', 'sign:-1,1', 'hemisphere:1,0', 'cap:1,0:0.5',
    'complement:<spec>', 'full', or 'none'."""
    text = text.strip()
    if text in ("none", ""):
        return None
    if text == "full":
        return full_sphere(d)
    kind, _, rest = text.partition(":")
    if kind == "sign":
        signs = frozenset(int(s) for s in rest.split(",") if s)
        return SignSet(signs)
    if kind == "hemisphere":
        axis = tuple(float(c) for c in rest.split(","))
        return Hemisphere(axis)
    if kind == "cap":
        coords, _, ang = rest.rpartition(":")
        center = tuple(float(c) for c in coords.split(","))
        return Cap(center, float(ang))
    if kind == "complement":
        inner = parse_direction_set(rest, d)
        if inner is None:
            raise ValueError("complement of nothing")
        return Complement(inner)
    raise ValueError(f"cannot parse direction set {text!r}")

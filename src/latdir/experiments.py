"""End-to-end experiments: direction frequencies of approximates, dyadic
shell averages, exact bias ratios for the skewed continued fraction, and the
degenerate-direction example from an integer relation.

Every experiment is a pure function of (parameters, seed) and returns an
ExperimentReport that serializes to JSON (big integers as decimal strings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import census as census_mod
from . import lattice as lm
from .lattice import RegionSpec, lattice_from_x
from .sphere import DirectionSet, SignSet


class EmptyDenominator(RuntimeError):
    """A ratio was requested over a window containing no census points."""


def _jsonable(v):
    kind = type(v)  # the exact leaf types of most of a report first, then containers and conversions
    if kind is float or kind is str or kind is bool or v is None:
        return v
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, int) and abs(v) > 2**53:
        return str(v)
    if isinstance(v, Fraction):
        return str(v)
    return v


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    seed: int | None = None

    def to_obj(self) -> dict:
        return {"experiment": self.experiment, "params": _jsonable(self.params),
                "seed": self.seed, "records": _jsonable(self.records),
                "summary": _jsonable(self.summary)}


# ---------------------------------------------------------------------------
# direction frequencies of Dirichlet approximates for random targets

def direction_frequency_experiment(d: int, num_points: int, T: float, A: DirectionSet,
                                   norm: str = "sup", C: float | None = None,
                                   seed: int = 0) -> ExperimentReport:
    """Sample uniform x in (0,1)^d and record N(x,T,A)/N(x,T) per sample.

    All targets are counted in one batched call (`count_approximates_many`).
    Rational collisions (measure zero, but RNG outputs are rationals: a hit
    with q x - p = 0) and targets without an approximate are skipped and
    reported, not silently dropped.
    """
    if T < 10 or num_points < 1:
        raise ValueError("need T >= 10 and at least one sample")
    rng = np.random.default_rng(seed)
    xs = rng.random((num_points, d))
    report = ExperimentReport(
        "thm1", {"d": d, "num_points": num_points, "T": T, "A": A.to_obj(),
                 "norm": norm, "C": C}, seed=seed)
    ratios = []
    skipped = 0
    for x, res in zip(xs, lm.count_approximates_many(xs, T, norm=norm, C=C, A=A)):
        if res.degenerate or res.total == 0:  # a rational collision, or no approximate
            skipped += 1
            report.records.append({"x": list(x), "skipped": True})
            continue
        ratio = res.in_A / res.total
        ratios.append(ratio)
        report.records.append({"x": list(x), "total": res.total, "in_A": res.in_A,
                               "ratio": ratio})
    mean = float(np.mean(ratios)) if ratios else float("nan")
    report.summary = {"mean_ratio": mean, "target": A.measure(),
                      "abs_deviation": abs(mean - A.measure()),
                      "used": len(ratios), "skipped": skipped}
    return report


# ---------------------------------------------------------------------------
# dyadic shell averages (the ergodic-average counting picture)

def shell_average_experiment(x, N_max: int, c: float = 1.0,
                             A: DirectionSet | None = None, norm: str = "sup") -> ExperimentReport:
    """Shell counts Q_i = (points of Lambda = h_x Z^{d+1} with
    2^{i-1} < v_2 <= 2^i), their running sums N(Lambda, 2^N), and the
    per-level averages N(Lambda, 2^N)/N against the volume references.

    The N shells and P_{2^N} are counted in one stacked enumeration
    (`count_regions`).  P_{2^N} keeps its own flowed shells, boxes,
    reduction and classification there, so the additivity check still
    compares independent counts."""
    if N_max < 2:
        raise ValueError("need N_max >= 2")
    lat = lattice_from_x(x)
    d = lat.dim - 1
    report = ExperimentReport("birkhoff", {"N_max": N_max, "c": c, "norm": norm,
                                           "A": A.to_obj() if A else None,
                                           "x": list(lat.x)})
    ref = lm.region_volume(RegionSpec("Q", d, T=2.0, c=c, norm=norm))
    ref_A = lm.region_volume(RegionSpec("Q", d, T=2.0, c=c, norm=norm, A=A)) if A else None
    running = 0
    running_A = 0
    degenerate = 0
    *shells, direct = lm.count_regions(lat, [RegionSpec("Q", d, T=float(2**i), c=c, norm=norm, A=A)
                                             for i in range(1, N_max + 1)]
                                       + [RegionSpec("P", d, T=float(2**N_max), c=c, norm=norm)])
    for i, sh in enumerate(shells, 1):
        running += sh.total
        degenerate += sh.degenerate
        if A is not None:
            running_A += sh.in_A
        rec = {"i": i, "shell": sh.total, "cumulative": running,
               "average": running / i, "reference": ref}
        if sh.degenerate:
            rec["degenerate"] = sh.degenerate
        if A is not None:
            rec.update({"shell_in_A": sh.in_A, "cumulative_in_A": running_A,
                        "average_in_A": running_A / i, "reference_in_A": ref_A,
                        "ratio": running_A / running if running else None})
        report.records.append(rec)
    # exact cross-check: shells must tile P_{2^N}
    report.summary = {"final_average": running / N_max, "reference": ref,
                      "relative_deviation": abs(running / N_max - ref) / ref,
                      "shells_sum": running, "direct_count": direct.total,
                      "additivity_exact": running == direct.total,
                      # nonzero only for rational-like targets, whose v_1 = 0
                      # column inflates the counts (the a.e. statement excludes them)
                      "degenerate": degenerate}
    if A is not None:
        report.summary.update({"final_ratio": running_A / running if running else None,
                               "target": A.measure()})
    return report


# ---------------------------------------------------------------------------
# the biased construction: exact census and window ratios

def biased_census(n_max: int) -> tuple[ExperimentReport, census_mod.CensusReport]:
    """Exact division-algorithm census of the biased number up to level n_max:
    the report, and the census itself for its rows."""
    rep = census_mod.build_census(n_max)
    report = ExperimentReport("biased-census", {"n_max": n_max})
    for lv in rep.levels:
        report.records.append({
            "n": lv.n, "q_n": lv.q_n, "a_next": lv.a_next,
            "classes": [{"label": c.label, "r": c.r, "m_max": c.m_hi,
                         "in_R": c.count, "minus": c.sign_count(-1),
                         "plus": c.sign_count(1),
                         "pieces": [list(p) for p in c.pieces]}
                        for c in lv.classes],
        })
    report.summary = {
        "L": {str(n): v for n, v in rep.l_values.items()},
        "L_bounds": {str(n): math.isqrt((n + 1) ** (n + 1)) for n in rep.l_values},
        "thresholds": [str(t) for t in rep.thresholds],
        "rows": len(rep.rows),
    }
    return report, rep


def biased_ratio(T_list=None, A: DirectionSet | None = None, eps=0, n_max: int = 7) -> ExperimentReport:
    """Exact in-window sign ratios N(A, eps, T)/N(eps, T) for the biased number.

    The window is [max(1, ceil(eps T)), T]: the q >= 1 convention sidesteps
    the v_2 = 0 plane that a literal eps = 0 window would drag in.
    """
    A = A or SignSet(frozenset({-1}))
    if not isinstance(A, SignSet):
        raise ValueError("the biased construction is one-dimensional: A must be a SignSet")
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    rep = census_mod.build_census(n_max)
    thresholds = T_list if T_list is not None else rep.thresholds
    if not thresholds:
        raise EmptyDenominator("no thresholds available")
    report = ExperimentReport("biased-ratio", {"eps": str(eps), "A": A.to_obj(),
                                               "n_max": n_max,
                                               "thresholds": [str(t) for t in thresholds]})
    take_minus = A.contains_sign(-1)
    take_plus = A.contains_sign(1)
    for T in thresholds:
        T = int(T)
        w_lo = max(1, math.ceil(eps * T))
        minus, plus = rep.window_counts(w_lo, T)
        total = minus + plus
        if total == 0:
            raise EmptyDenominator(f"no census points in window [{w_lo}, {T}]")
        hits = (minus if take_minus else 0) + (plus if take_plus else 0)
        ratio = Fraction(hits, total)
        report.records.append({"T": str(T), "window_lo": str(w_lo), "minus": minus,
                               "plus": plus, "total": total,
                               "ratio": float(ratio), "ratio_exact": str(ratio)})
    last = report.records[-1]
    report.summary = {"final_ratio": last["ratio"],
                      "final_minus_share": last["minus"] / last["total"],
                      "final_plus_share": last["plus"] / last["total"],
                      "bias_gap": (last["minus"] - last["plus"]) / last["total"]}
    return report


# ---------------------------------------------------------------------------
# degenerate directions from an integer relation

def nonminimal_experiment(d: int, x_base, T: float, C: float | None = None,
                          norm: str = "euclidean", q_min: int = 100,
                          probe_cap: DirectionSet | None = None) -> ExperimentReport:
    """Repeat one irrational across all coordinates: the relation
    x_1 - x_2 = 0 pins every direction of a large-q approximate onto the
    diagonal subsphere {u_1 = u_2}, collapsing the direction distribution."""
    if d < 2:
        raise ValueError("the relation example needs d >= 2")
    if probe_cap is not None and probe_cap.dim != d:
        raise ValueError("direction set dimension mismatch")
    alpha = float(x_base)
    xv = np.full(d, alpha)
    res = lm.count_approximates(xv, T, norm=norm, C=C, want_witnesses=True)
    w = np.full(d, 1.0 / math.sqrt(d))
    report = ExperimentReport("nonminimal", {"d": d, "alpha": alpha, "T": T,
                                             "norm": norm, "C": C, "q_min": q_min})
    max_resid = 0.0
    max_rel = 0.0
    n_large = 0
    cap_hits_large = 0
    for q, v1, unit in res.witnesses:
        if unit is None:
            continue
        u = np.array(unit)
        resid = min(float(np.linalg.norm(u - w)), float(np.linalg.norm(u + w)))
        rel = abs(float(u[0] - u[1]))
        in_probe = bool(probe_cap.contains(u)) if probe_cap is not None else None
        report.records.append({"q": q, "direction": list(unit),
                               "diagonal_residual": resid, "relation_residual": rel,
                               "in_probe_cap": in_probe})
        if q >= q_min:
            n_large += 1
            max_resid = max(max_resid, resid)
            max_rel = max(max_rel, rel)
            if in_probe:
                cap_hits_large += 1
    report.summary = {"total": res.total, "large_q": n_large,
                      "max_diagonal_residual": max_resid,
                      "max_relation_residual": max_rel,
                      "probe_cap_hits_large_q": cap_hits_large if probe_cap is not None else None}
    return report


"""Spans around the public functions of each latdir layer, installed from the
benchmark's own files (no span lives inside the program).

A span is [name, start, end, parent id, units]; spans stay in memory and are
written once, when the run ends.  `install` also rebinds every name that a
latdir module imported by value (`siegel` holds its own `enumerate_in_box`),
so no call path escapes the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path


def _points(args, kwargs, out):
    return len(out[0] if isinstance(out, tuple) else out)


# (module, attribute path, span name, units of work taken from (args, kwargs, result))
TARGETS = [
    ("latdir.lattice", "enumerate_in_box", "lattice.enumerate_in_box", _points),
    ("latdir.lattice", "count_approximates", "lattice.count_approximates", lambda a, k, out: out.total),
    ("latdir.lattice", "shell_count", "lattice.shell_count", None),
    ("latdir.lattice", "count_region", "lattice.count_region", None),
    ("latdir.siegel", "haar_rotation", "siegel.haar_rotation", None),
    ("latdir.siegel", "RegionIndicator.evaluate", "siegel.RegionIndicator.evaluate", None),
    ("latdir.siegel", "thm3_ratio", "siegel.thm3_ratio", None),
    ("latdir.contfrac", "RotationScan.__init__", "contfrac.RotationScan", None),
    ("latdir.contfrac", "CFNumber.enclosure_at", "contfrac.enclosure_at", None),
    ("latdir.census", "build_census", "census.build_census", lambda a, k, out: len(out.rows)),
    ("latdir.census", "CensusReport.window_counts", "census.window_counts", None),
    ("latdir.experiments", "direction_frequency_experiment", "experiments.thm1", None),
    ("latdir.experiments", "shell_average_experiment", "experiments.birkhoff", None),
    ("latdir.experiments", "biased_census", "experiments.biased_census", None),
    ("latdir.experiments", "biased_ratio", "experiments.biased_ratio", None),
    ("latdir.experiments", "nonminimal_experiment", "experiments.nonminimal", None),
    ("latdir.cli", "run", "cli.run", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, units):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if units is not None:
                rec[4] = units(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from latdir import sphere

        for mod_name, path, name, units in TARGETS:
            owner = importlib.import_module(mod_name)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, units)
            self._patch(owner, attr, wrapper)
            if not cls:  # rebind copies made by `from module import name`
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("latdir") and mod is not owner
                            and mod.__dict__.get(attr) is original):
                        self._patch(mod, attr, wrapper)
        # every direction-set class implements its own contains_many
        for cls in vars(sphere).values():
            if isinstance(cls, type) and issubclass(cls, sphere.DirectionSet) and "contains_many" in cls.__dict__:
                self._patch(cls, "contains_many", self._wrap(
                    "sphere.contains_many", cls.__dict__["contains_many"], lambda a, k, out: len(a[1])))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "units"],
                                    "spans": self.spans}))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer totals. A span nested in one of its own name (a
        Complement delegating contains_many) is not counted twice."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0

        def outermost(i):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == spans[i][0]:
                    return False
                p = spans[p][3]
            return True

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        units: dict[str, int] = {}
        durations: dict[str, list[float]] = {}
        for i, (name, t0, t1, _, u) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
            if outermost(i):
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + (t1 - t0)
                units[name] = units.get(name, 0) + u
                durations.setdefault(name, []).append(t1 - t0)

        def per_pass(table, name):
            return table.get(name, 0) / passes

        enum = "lattice.enumerate_in_box"
        enum_ms = [1e3 * d for d in durations.get(enum, [])]
        return {
            f"{enum}.calls": per_pass(calls, enum),
            f"{enum}.s": per_pass(total, enum),
            f"{enum}.points": per_pass(units, enum),
            f"{enum}.us_per_point": 1e6 * total[enum] / units[enum] if units.get(enum) else 0.0,
            f"{enum}.p50_ms": _quantile(enum_ms, 0.50),
            f"{enum}.p99_ms": _quantile(enum_ms, 0.99),
            "lattice.count_approximates.calls": per_pass(calls, "lattice.count_approximates"),
            "lattice.count_approximates.s": per_pass(total, "lattice.count_approximates"),
            "lattice.count_approximates.hits": per_pass(units, "lattice.count_approximates"),
            "lattice.shell_count.s": per_pass(total, "lattice.shell_count"),
            "lattice.count_region.s": per_pass(total, "lattice.count_region"),
            "siegel.haar_rotation.calls": per_pass(calls, "siegel.haar_rotation"),
            "siegel.haar_rotation.s": per_pass(total, "siegel.haar_rotation"),
            "siegel.RegionIndicator.evaluate.s": per_pass(total, "siegel.RegionIndicator.evaluate"),
            "siegel.thm3_ratio.self_s": per_pass(self_s, "siegel.thm3_ratio"),
            "sphere.contains_many.calls": per_pass(calls, "sphere.contains_many"),
            "sphere.contains_many.s": per_pass(total, "sphere.contains_many"),
            "sphere.contains_many.units": per_pass(units, "sphere.contains_many"),
            "contfrac.RotationScan.calls": per_pass(calls, "contfrac.RotationScan"),
            "contfrac.RotationScan.s": per_pass(total, "contfrac.RotationScan"),
            "contfrac.enclosure_at.calls": per_pass(calls, "contfrac.enclosure_at"),
            "contfrac.enclosure_at.s": per_pass(total, "contfrac.enclosure_at"),
            "census.build_census.calls": per_pass(calls, "census.build_census"),
            "census.build_census.s": per_pass(total, "census.build_census"),
            "census.rows": per_pass(units, "census.build_census"),
            "census.window_counts.s": per_pass(total, "census.window_counts"),
            "experiments.self_s": sum(v for k, v in self_s.items() if k.startswith("experiments.")) / passes,
            "cli.report_io_s": per_pass(self_s, "cli.run"),
        }


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]

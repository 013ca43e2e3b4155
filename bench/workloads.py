"""Workload definitions and the output gate.

Every input comes from one benchmark seed (`inputs`), so the program only
ever sees generated values.  An operation is either an in-process
`latdir.cli.main([...])` call whose reports land in its own directory, or a
direct call into a public function whose result is serialised to JSON.  The
gate hashes every output with the report `timestamp` dropped and checks the
seed-independent facts the paper's exact claims rest on.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("mc-rotation", "approx-count", "exact-census")

# Why each workload exists, and which layer it stresses:
#  mc-rotation   Haar-averaged Monte Carlo of Siegel transforms (criterion 9's
#                region and flow time). Fourier-Motzkin box enumeration on the
#                ill-conditioned flowed basis dominates it.
#  approx-count  float and horospherical counting (thm1, birkhoff, nonminimal):
#                the lattice layer without box enumeration or Haar sampling.
#  exact-census  pure-Python big-integer work in contfrac/census plus the
#                heaviest report I/O; no numpy enumeration at all.

PINNED = Path(__file__).with_name("expected.json")
OUT_ROOT = Path(".bench_run") / "out"  # relative: reports store the --out string
CF_TERMS = 256  # elements per random CFNumber; RotationScan needs far fewer at q <= 1e5
EXACT_T = 100_000
# How often an exact scan must refine its enclosure depends on the elements, so
# one random CFNumber at T = 1e5 moves the pass time by +-15% between seeds;
# eight at T = 25,000 average that out.
RANDOM_CFS = 8
RANDOM_CF_T = 25_000
# criterion 9 runs M = 2000; a quarter of that per pass keeps the per-sample
# cost identical and gives ~10 passes per run for a steady median
MC_SAMPLES = 500


def inputs(seed: int) -> dict:
    """Everything a pass needs, from one seed, in a fixed draw order."""
    rng = random.Random(seed)
    return {
        "thm3_seeds": [rng.randrange(2**31) for _ in range(2)],
        "thm1_seeds": [rng.randrange(2**31) for _ in range(2)],
        "birkhoff_x": [rng.random() for _ in range(5)],
        "cf_elements": [[rng.randint(1, 9) for _ in range(CF_TERMS)] for _ in range(RANDOM_CFS)],
    }


@dataclass
class Op:
    """One operation: `argv` for a CLI call, or `call` returning a JSON-able value."""

    name: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None

    @property
    def out_dir(self) -> Path:
        return OUT_ROOT / self.name


@dataclass
class OpResult:
    name: str
    seconds: float
    digest: str = ""
    bytes: int = 0
    reports: dict = field(default_factory=dict)  # file name -> parsed JSON report
    error: str = ""


def _cli(name: str, *args: str) -> Op:
    op = Op(name)
    op.argv = ["run", *args, "--out", str(op.out_dir)]
    return op


def build_ops(workload: str, seed: int) -> list[Op]:
    inp = inputs(seed)
    if workload == "mc-rotation":
        s1, s2 = inp["thm3_seeds"]
        common = ["--eps", "0.1", "--t", "6", "--M", str(MC_SAMPLES), "--threads", "1"]
        return [_cli("thm3-d1", "thm3", "--d", "1", *common, "--A", "sign:-1", "--seed", str(s1)),
                _cli("thm3-d2", "thm3", "--d", "2", *common, "--A", "hemisphere:1,0", "--seed", str(s2))]
    if workload == "approx-count":
        s1, s2 = inp["thm1_seeds"]
        ops = [_cli("thm1-d1", "thm1", "--d", "1", "--T", "1e5", "--n", "200", "--A", "sign:-1",
                    "--seed", str(s1)),
               _cli("thm1-d2", "thm1", "--d", "2", "--T", "1e4", "--n", "50",
                    "--A", "hemisphere:1,0", "--seed", str(s2))]
        ops += [_cli(f"birkhoff-{i}", "birkhoff", "--N", "14", "--x", repr(x))
                for i, x in enumerate(inp["birkhoff_x"], 1)]
        ops.append(_cli("nonminimal-d2", "nonminimal", "--d", "2", "--T", "1e4"))
        return ops
    if workload == "exact-census":
        from latdir import census, contfrac, lattice
        from latdir.sphere import SignSet

        minus = SignSet(frozenset({-1}))

        def exact(make_cf, T):
            return lambda: lattice.count_approximates(make_cf(), T, A=minus, want_witnesses=True).to_obj()

        def brute():
            cf = contfrac.biased_number()
            return census.brute_force_in_R(cf, cf.convergent(5).q - 1)

        ops = [_cli("biased-census-9", "biased-census", "--nmax", "9")]
        ops += [_cli(f"biased-ratio-{tag}", "biased-ratio", "--nmax", "9", "--eps", eps, "--A", "sign:-1")
                for tag, eps in (("eps0", "0"), ("eps1-100", "1/100"), ("eps1-10", "1/10"))]
        ops.append(Op("exact-biased", call=exact(contfrac.biased_number, EXACT_T)))
        ops += [Op(f"exact-random-{i}", call=exact(lambda el=el: contfrac.CFNumber.from_elements(el), RANDOM_CF_T))
                for i, el in enumerate(inp["cf_elements"], 1)]
        ops.append(Op("brute-q5", call=brute))
        return ops
    raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")


def run_op(op: Op, main: Callable[[list[str]], int]) -> OpResult:
    """Run one operation and time it; hashing and parsing happen after the clock stops."""
    if op.out_dir.exists():
        shutil.rmtree(op.out_dir)
    value = None
    error = ""
    t0 = time.perf_counter()
    try:
        if op.argv is not None:
            code = main(op.argv)
            if code != 0:
                error = f"exit code {code}"
        else:
            value = op.call()
    except Exception as e:  # a crash is a failed operation, not an aborted run
        error = f"{type(e).__name__}: {e}"
    res = OpResult(op.name, time.perf_counter() - t0, error=error)
    if not error:
        if op.argv is not None:
            res.digest, res.bytes, res.reports = _digest_dir(op.out_dir)
        else:
            res.digest = hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
    return res


_TIMESTAMP = re.compile(rb'^  "timestamp": "[^"\n]*",?\n', re.M)


def _digest_dir(path: Path) -> tuple[str, int, dict]:
    h = hashlib.sha256()
    size = 0
    reports = {}
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        size += len(data)
        if f.suffix == ".json":
            reports[f.name] = json.loads(data)
            data = _TIMESTAMP.sub(b"", data)
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size, reports


def pinned_digests(workload: str, seed: int) -> dict | None:
    pins = json.loads(PINNED.read_text())
    return pins["digests"].get(workload, {}).get(str(seed))


def check_pass(workload: str, results: list[OpResult], pinned: dict | None,
               first: dict[str, str]) -> dict[str, list[str]]:
    """The output gate for one pass: per operation, every reason it failed.

    An operation fails on an exception or non-zero exit code, on a digest
    other than the pinned one (seeds with pins) or than its first pass in this
    run (`first`, updated here), and on a missed seed-independent fact.
    """
    problems = fact_problems(workload, {r.name: r for r in results})
    for r in results:
        mine = problems.setdefault(r.name, [])
        if r.error:
            mine.insert(0, r.error)
            continue
        ref = first.setdefault(r.name, r.digest)
        if pinned is not None and r.digest != pinned.get(r.name):
            mine.append(f"digest {r.digest[:12]} != pinned {str(pinned.get(r.name))[:12]}")
        elif r.digest != ref:
            mine.append("digest differs from the first pass of this run")
    return problems


def fact_problems(workload: str, results: dict[str, OpResult]) -> dict[str, list[str]]:
    """Seed-independent facts, per operation name."""
    from latdir.acceptance import FROZEN_BIAS_COUNTS

    problems: dict[str, list[str]] = {}

    def report(name: str, experiment: str) -> dict | None:
        r = results.get(name)
        return r.reports.get(f"{experiment}-report.json") if r and not r.error else None

    if workload == "approx-count":
        for name in results:
            if name.startswith("birkhoff-"):
                rep = report(name, "birkhoff")
                if rep is None or rep["summary"].get("additivity_exact") is not True:
                    problems.setdefault(name, []).append("birkhoff shells do not add up to P_{2^N}")
    if workload == "exact-census":
        census = report("biased-census-9", "biased-census")
        t7 = None
        if census is not None:
            L = census["summary"]["L"]
            for n in (5, 7, 9):
                if int(L[str(n)]) < math.isqrt((n + 1) ** (n + 1)):
                    problems.setdefault("biased-census-9", []).append(f"L_{n} = {L[str(n)]} below the bound")
            q7 = next(int(r["q_n"]) for r in census["records"] if r["n"] == 7)
            t7 = int(L["7"]) * q7
        for eps, tag in (("0", "eps0"), ("1/100", "eps1-100"), ("1/10", "eps1-10")):
            name = f"biased-ratio-{tag}"
            rep = report(name, "biased-ratio")
            frozen = FROZEN_BIAS_COUNTS[Fraction(eps)]
            rows = [] if rep is None or t7 is None else [r for r in rep["records"] if int(r["T"]) == t7]
            if [(r["minus"], r["plus"]) for r in rows] != [frozen]:
                problems.setdefault(name, []).append(f"counts at T = L_7 q_7 differ from {frozen}")
    return problems

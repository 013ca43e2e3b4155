"""Self-test of the benchmark's own machinery, run from the root of a checkout:

    python3 bench/selftest.py

It checks that the output gate rejects a tampered report or CSV and ignores
only the timestamp, and that traced and untraced passes give identical
digests while the tracer sees through names imported by value.  Exit code 0
means every check passed.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
os.chdir(ROOT)

import tracing  # noqa: E402
import workloads  # noqa: E402
from latdir import cli  # noqa: E402

SEED = json.loads(workloads.PINNED.read_text())["default_seed"]
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def gate(workload, results):
    return workloads.check_pass(workload, results, workloads.pinned_digests(workload, SEED), {})


def rehash(res: workloads.OpResult) -> workloads.OpResult:
    res.digest, res.bytes, res.reports = workloads._digest_dir(workloads.OUT_ROOT / res.name)
    return res


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if old not in text:
        raise SystemExit(f"selftest: {old!r} not found in {path}")
    path.write_text(text.replace(old, new, 1))


def test_gate() -> None:
    ops = [op for op in workloads.build_ops("exact-census", SEED) if op.argv is not None]
    results = [workloads.run_op(op, cli.main) for op in ops]
    check(not any(gate("exact-census", results).values()), "untouched census reports pass the gate")

    ratio = next(r for r in results if r.name == "biased-ratio-eps0")
    report = workloads.OUT_ROOT / ratio.name / "biased-ratio-report.json"
    edit(report, '"timestamp": "', '"timestamp": "1999')
    rehash(ratio)
    check(not gate("exact-census", results)[ratio.name], "a changed timestamp alone passes the gate")

    edit(report, '"minus": 4337', '"minus": 4338')
    rehash(ratio)
    problems = gate("exact-census", results)[ratio.name]
    check(any("digest" in p for p in problems), "a tampered report fails the digest check")
    check(any("L_7 q_7" in p for p in problems), "a tampered report fails the frozen-count check")
    check(not gate("exact-census", results)["biased-census-9"], "the tamper is charged to its own operation")

    census = next(r for r in results if r.name == "biased-census-9")
    rows = workloads.OUT_ROOT / census.name / "biased-census-rows.csv"
    with open(rows, "a") as fh:
        fh.write("9,0,0,1,1,True,-1\n")
    rehash(census)
    check(bool(gate("exact-census", results)[census.name]), "a tampered CSV fails the gate")

    failed = workloads.OpResult("biased-census-9", 0.0, error="exit code 2")
    check(bool(gate("exact-census", [failed])["biased-census-9"]), "a non-zero exit code fails the gate")


def test_trace_identity() -> None:
    ops = workloads.build_ops("approx-count", SEED)
    plain = [workloads.run_op(op, cli.main) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [workloads.run_op(op, cli.main) for op in ops]
        small_mc = workloads._cli("thm3-small", "thm3", "--d", "2", "--eps", "0.1", "--t", "4", "--M", "8",
                                  "--A", "hemisphere:1,0", "--seed", "5")
        mc = workloads.run_op(small_mc, cli.main)
    finally:
        tracer.uninstall()
    check(not mc.error and all(not r.error for r in plain + traced), "every operation ran")
    check([r.digest for r in plain] == [r.digest for r in traced], "traced and untraced digests agree")
    check(not any(gate("approx-count", traced).values()), "traced outputs pass the pinned gate")
    layers = tracer.layer_metrics(1)
    check(layers["lattice.count_approximates.calls"] == 251, "count_approximates called 251 times (thm1 + nonminimal)")
    check(layers["lattice.enumerate_in_box.calls"] == 8, "siegel's own enumerate_in_box was rebound (8 samples)")
    check(layers["siegel.haar_rotation.calls"] == 8, "haar_rotation traced once per sample")
    from latdir import lattice, siegel
    check(siegel.enumerate_in_box is lattice.enumerate_in_box and not hasattr(siegel.enumerate_in_box, "__wrapped__"),
          "uninstall restores the original functions")


if __name__ == "__main__":
    test_gate()
    test_trace_identity()
    print(f"{len(failures)} failed" if failures else "all selftests passed")
    sys.exit(1 if failures else 0)

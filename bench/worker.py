"""One benchmark child: runs a workload's passes for a time budget in a fresh
interpreter and prints one JSON line with pass times, peak RSS, gate results
and, when traced, the per-layer totals.

    PYTHONPATH=src python3 bench/worker.py --workload exact-census --seed 0 --seconds 10 --trace 0

Untraced runs time every pass.  Traced runs alternate untraced and traced
passes, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

import tracing
import workloads


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    from latdir import cli

    ops = workloads.build_ops(args.workload, args.seed)
    pinned = workloads.pinned_digests(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    first: dict[str, str] = {}  # digest of each operation's first successful pass
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    op_s: dict[str, list[float]] = {op.name: [] for op in ops}
    report_bytes: list[int] = []
    failures: list[str] = []
    attempted = 0
    min_passes = 2 if tracer else 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(pass_s[False]) > len(pass_s[True])
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = [workloads.run_op(op, cli.main) for op in ops]
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        pass_s[traced].append(elapsed)
        done = len(pass_s[False]) + len(pass_s[True])
        report_bytes.append(sum(r.bytes for r in results))
        problems = workloads.check_pass(args.workload, results, pinned, first)
        for r in results:
            attempted += 1
            op_s[r.name].append(r.seconds)
            if problems[r.name]:
                failures.append(f"pass {done}{' traced' if traced else ''} {r.name}: {'; '.join(problems[r.name])}")
        spent = time.perf_counter() - start
        if done >= min_passes and spent + elapsed > args.seconds:
            break

    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "pass_s": pass_s[False],
        "traced_pass_s": pass_s[True],
        "op_s": {name: statistics.median(v) for name, v in op_s.items()},
        "digests": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_bytes": statistics.median(report_bytes),
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(len(pass_s[True]))
        tracer.write(Path(".bench_run") / "trace" / f"{args.workload}-seed{args.seed}.json")
    print(json.dumps(out))


if __name__ == "__main__":
    main()

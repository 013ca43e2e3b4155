"""latdir benchmark: one workload, one run, from the root of a checkout.

    python3 bench/run.py --workload mc-rotation --seed 0 --seconds 36 --trace 0

Each run starts fresh single-threaded child interpreters (BLAS/OpenMP pinned
to one thread) on the checkout's `src/`:

* `setup_s`: median over SETUP_REPEATS interpreters of start to
  `import latdir.cli` done and exit, which every `latdir` call pays;
* one worker (bench/worker.py) that repeats the workload's pass until
  `--seconds` is spent and gates every output.

With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics from the span wrappers of bench/tracing.py and the import
profile of `-X importtime`.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170  # the whole run, child processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def setup_seconds() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = child(["-c", "import latdir.cli"], timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"`import latdir.cli` failed:\n{proc.stderr.strip()}")
    return statistics.median(times)


def import_profile() -> dict[str, float]:
    """`latdir.cli` and scipy cumulative import times from `-X importtime`."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = child(["-X", "importtime", "-c", "import latdir.cli"], timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"`import latdir.cli` failed:\n{proc.stderr.strip()}")
        rows = []  # (depth, name, cumulative seconds), children before parents
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line and "cumulative" not in line:
                _, cum, name = line[len("import time:"):].split("|")
                rows.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cum) / 1e6))

        def parent(i):
            return next((r for r in rows[i + 1:] if r[0] < rows[i][0]), None)

        def is_scipy(name):
            return name == "scipy" or name.startswith("scipy.")

        cli_s.append(sum(cum for depth, name, cum in rows if depth == 0 and name == "latdir.cli"))
        scipy_s.append(sum(r[2] for i, r in enumerate(rows)
                           if is_scipy(r[1]) and not is_scipy((parent(i) or (0, ""))[1])))
    return {"setup.import_s": statistics.median(cli_s), "setup.scipy_import_s": statistics.median(scipy_s)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "latdir" / "cli.py").is_file():
        print(f"error: no latdir sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            profile = import_profile()
        else:
            setup = setup_seconds()
        proc = child([str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     timeout=DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}:\n{proc.stderr.strip()}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    tag = f"[{args.workload} seed={args.seed}]"
    for name, secs in res["op_s"].items():
        print(f"{tag} op {name}: median {secs:.4f} s")
    for line in res["failures"]:
        print(f"{tag} FAILED {line}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"{tag} fail_frac = {res['failed']}/{res['attempted']} = {fail_frac:.4f}")

    if args.trace:
        traced = statistics.median(res["traced_pass_s"])
        untraced = statistics.median(res["pass_s"])
        layers = dict(res["layers"])
        layers["cli.report_bytes"] = res["report_bytes"]
        layers.update(profile)
        layers.update({"trace.traced_wall_s": traced, "trace.untraced_wall_s": untraced,
                       "trace.overhead_s": traced - untraced})
        metrics = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - fail_frac, "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"{tag} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".points", "count"), (".hits", "count"), (".units", "count"),
                         (".rows", "count"), ("_bytes", "B"), ("_per_point", "us"), ("_ms", "ms"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


if __name__ == "__main__":
    sys.exit(main())

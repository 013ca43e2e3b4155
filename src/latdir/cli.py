"""Command-line front end: run any experiment reproducibly, or verify the
whole acceptance suite.

    latdir run thm1 --d 1 --T 100000 --A sign:-1 --n 200 --seed 7
    latdir run biased-census --nmax 7
    latdir run thm3 --d 2 --eps 0.1 --t 6 --M 2000 --A hemisphere:1,0 --seed 3
    latdir verify [--quick] [--seed N]

Exit codes: 0 ok, 2 config error, 3 candidate budget or census row cap
exceeded, 4 acceptance failure.  Reports are JSON (big integers as decimal strings) plus CSV traces;
identical configs and seeds give byte-identical reports up to the timestamp.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import acceptance as acc
from . import experiments as ex
from . import lattice as lm
from . import siegel as sg
from .census import RowCapExceeded
from .sphere import parse_direction_set

EXIT_OK, EXIT_CONFIG, EXIT_BUDGET, EXIT_ACCEPTANCE = 0, 2, 3, 4

EXPERIMENTS = ("thm1", "birkhoff", "thm3", "biased-census", "biased-ratio", "nonminimal")


@dataclass
class RunConfig:
    """Everything an experiment run depends on; its fields are the `config`
    that every report carries."""

    experiment: str
    d: int = 1
    T: float = 1e4
    n: int = 100
    N: int = 14
    nmax: int = 7
    eps: str = "0.1"
    t: float = 6.0
    M: int = 2000
    A: str = ""
    norm: str = "sup"
    c: float = 1.0
    C: float = 0.0
    x: float = -1.0  # < 0 means "sample from seed"
    seed: int = 0
    threads: int = 1
    budget: int = 0  # 0 means the module default
    out: str = "latdir-out"

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r} (choose from {EXPERIMENTS})")
        if self.d < 1:
            raise ValueError("--d must be at least 1")
        for name in ("T", "t", "c", "C", "x"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"--{name} must be finite")
        if self.c <= 0.0:
            raise ValueError("--c must be positive")
        if self.C < 0.0:
            raise ValueError("--C must be positive, or 0 for the default")
        if self.budget < 0:
            raise ValueError("--budget must be positive, or 0 for the default")
        if self.budget and self.experiment != "thm3":
            raise ValueError("--budget is for thm3 only; LATDIR_BUDGET caps every experiment")
        if self.threads != 1:
            raise ValueError("--threads must be 1: thm3 counts all its samples in one batched pass")
        if self.experiment == "biased-ratio" or self.experiment == "biased-census":
            if self.nmax % 2 == 0 or not 1 <= self.nmax <= 9:
                raise ValueError("--nmax must be an odd index between 1 and 9")
        if self.experiment in ("birkhoff", "biased-ratio", "biased-census") and self.d != 1:
            raise ValueError(f"{self.experiment} has one real target: --d must be 1")
        if self.experiment == "thm3" and float(Fraction(self.eps)) <= 0.0:
            raise ValueError("thm3 needs eps > 0 (eps = 0 makes the region unbounded)")
        lm.default_budget()  # a bad LATDIR_BUDGET fails here, before any work


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _append_json(obj, out: list, pad: str) -> None:
    """Append the `json.dumps(obj, sort_keys=True, indent=2)` text of `obj` to
    `out`; `pad` is the newline and indent of the line `obj` starts on.

    Takes str keys and str, int, float, bool, None, dict, list and tuple
    values, and float subclasses; anything else raises TypeError.  A
    module-level function, not a closure over `out`, so a call leaves no
    reference cycle behind."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is float:
        text = float.__repr__(obj)
        out.append(_FLOAT_WORDS.get(text, text))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _quote(key) + ": ")
            _append_json(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _append_json(value, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):  # numpy's float64 among them
        _append_json(float(obj), out, pad)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, without the json module's
    pure-Python encoder that any `indent` falls back to."""
    out = []
    _append_json(obj, out, "\n")
    return "".join(out)


def _write_files(out: Path, files: dict) -> None:
    """Write each file `out / name` of `files` from its chunks, and none whose
    first chunk is empty.  A chunk is bytes-like (bytes, or a numpy uint8
    block), written as it is, or str, encoded as UTF-8.  Every file is
    written in binary mode under a temporary name and all are renamed once
    the last chunk is in, so a write that fails part way leaves none of them."""
    out.mkdir(parents=True, exist_ok=True)
    partial = {}
    try:
        for name, text in files.items():
            chunks = iter(text)
            first = next(chunks, "")
            if len(first):
                final = out / name
                partial[final] = final.with_name(name + ".partial")
                with open(partial[final], "wb") as fh:
                    for chunk in chain((first,), chunks):
                        fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
    except BaseException:
        for tmp in partial.values():
            tmp.unlink(missing_ok=True)
        raise
    for final, tmp in partial.items():
        os.replace(tmp, final)


def _write_report(cfg: RunConfig, report_obj: dict, csv_text, trace_name: str) -> Path:
    """Write the report and, unless `csv_text`'s first chunk is empty, the CSV
    trace from its chunks (str lines or bytes-like blocks), one chunk at a
    time; a run that fails part way leaves neither file."""
    report_obj = {**report_obj, "config": dataclasses.asdict(cfg),
                  "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    name = f"{cfg.experiment}-report.json"
    _write_files(Path(cfg.out), {name: (_json_text(report_obj), "\n"), f"{trace_name}.csv": csv_text})
    return Path(cfg.out) / name


class _Echo:
    """A file whose `write` hands the text back, so `csv.writer` returns each line."""

    def write(self, text: str) -> str:
        return text


def _csv_lines(fields, rows):
    """The CSV text of a header and its rows, a line at a time; nothing without a header."""
    if fields:
        writer = csv.writer(_Echo())
        yield writer.writerow(fields)
        for row in rows:
            yield writer.writerow(row)


def _table(records: list[dict]):
    """CSV lines of a header (every key, in order of first use) and rows ("" for a missing key)."""
    fields = list(dict.fromkeys(k for rec in records for k in rec))
    return _csv_lines(fields, ([rec.get(k, "") for k in fields] for rec in records))


def _direction_set(cfg: RunConfig):
    default = "sign:-1" if cfg.d == 1 else "hemisphere:" + ",".join(["1"] + ["0"] * (cfg.d - 1))
    return parse_direction_set(cfg.A or default, cfg.d)


def run(cfg: RunConfig) -> int:
    cfg.validate()
    C = cfg.C or None
    if cfg.experiment == "thm1":
        rep = ex.direction_frequency_experiment(cfg.d, cfg.n, cfg.T, _direction_set(cfg),
                                                norm=cfg.norm, C=C, seed=cfg.seed)
        _write_report(cfg, rep.to_obj(), _table(rep.records), "thm1-trace")
    elif cfg.experiment == "birkhoff":
        x = cfg.x if cfg.x >= 0 else float(np.random.default_rng(cfg.seed).random())
        rep = ex.shell_average_experiment(x, cfg.N, c=cfg.c, A=parse_direction_set(cfg.A, 1),
                                          norm=cfg.norm)
        rep.seed = cfg.seed
        _write_report(cfg, rep.to_obj(), _table(rep.records), "birkhoff-trace")
    elif cfg.experiment == "thm3":
        lat = lm.Lattice(np.eye(cfg.d + 1))
        r = sg.thm3_ratio(lat, _direction_set(cfg), eps=float(Fraction(cfg.eps)), t=cfg.t,
                          M=cfg.M, seed=cfg.seed, c=cfg.c, budget=cfg.budget or None,
                          keep_trace=True)
        rows = [(i, a, b) for i, (a, b) in enumerate(zip(r.numerator.values, r.denominator.values))]
        obj = {"experiment": "thm3", "result": r.to_obj(), "seed": cfg.seed}
        _write_report(cfg, obj, _csv_lines(("i", "in_A", "total"), rows), "thm3-trace")
        print(f"ratio = {r.ratio:.4f} +- {r.stderr:.4f} (vol(A) = {r.vol_reference})")
    elif cfg.experiment == "biased-census":
        rep, census = ex.biased_census(cfg.nmax)
        _write_report(cfg, rep.to_obj(), census.rows.csv_text(), "biased-census-rows")
        print("L_n:", rep.summary["L"], "thresholds:", rep.summary["thresholds"])
    elif cfg.experiment == "biased-ratio":
        A = parse_direction_set(cfg.A or "sign:-1", 1)
        rep = ex.biased_ratio(A=A, eps=Fraction(cfg.eps), n_max=cfg.nmax)
        _write_report(cfg, rep.to_obj(), _table(rep.records), "biased-ratio-trace")
        print("final ratio:", rep.summary["final_ratio"])
    elif cfg.experiment == "nonminimal":
        from .contfrac import biased_number
        alpha = cfg.x if cfg.x >= 0 else float(biased_number())
        rep = ex.nonminimal_experiment(cfg.d, alpha, cfg.T, C=C, norm="euclidean",
                                       probe_cap=parse_direction_set(cfg.A, cfg.d))
        _write_report(cfg, rep.to_obj(), _table(rep.records), "nonminimal-trace")
        print("max diagonal residual:", rep.summary["max_diagonal_residual"])
    return EXIT_OK


def verify(quick: bool, seed: int | None, out: str | None) -> int:
    results = acc.run_all(quick=quick, seed=seed)
    width = max(len(r.criterion) for r in results)
    print("criterion".ljust(width + 2) + "result")
    print("-" * (width + 30))
    for r in results:
        print(r.line())
    n_fail = sum(not r.passed for r in results)
    print("-" * (width + 30))
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    if out:
        # wall-clock fields stay out of the file so reruns diff clean
        rows = [{"criterion": r.criterion, "passed": r.passed, "detail": r.detail}
                for r in results]
        obj = {"results": rows, "quick": quick, "seed": seed,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
        _write_files(Path(out), {"verify-report.json": (_json_text(obj), "\n")})
    return EXIT_OK if n_fail == 0 else EXIT_ACCEPTANCE


def _seed(text: str) -> int:
    """A `--seed`: numpy's seed streams take non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `latdir` parser, built once a process: each `parse_args` call
    returns a new namespace, and every default is immutable."""
    ap = argparse.ArgumentParser(prog="latdir",
                                 description="Direction statistics of Dirichlet approximates and lattice points")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment and write its report")
    runp.add_argument("experiment", choices=EXPERIMENTS)
    runp.add_argument("--d", type=int, help="ambient dimension d (targets live in R^d)")
    runp.add_argument("--T", type=float, help="denominator bound")
    runp.add_argument("--n", type=int, help="number of sampled targets (thm1)")
    runp.add_argument("--N", type=int, help="number of dyadic shells (birkhoff)")
    runp.add_argument("--nmax", type=int, help="largest census level (odd, <= 9)")
    runp.add_argument("--eps", help="window parameter eps (exact fraction or decimal string)")
    runp.add_argument("--t", type=float, help="flow time (thm3)")
    runp.add_argument("--M", type=int, help="Monte Carlo samples (thm3)")
    runp.add_argument("--A", help="direction set: sign:-1 | hemisphere:1,0 | cap:1,0:0.5 | complement:...")
    runp.add_argument("--norm", choices=("sup", "euclidean"))
    runp.add_argument("--c", type=float, help="thinning constant")
    runp.add_argument("--C", type=float, help="Dirichlet constant (0 = default)")
    runp.add_argument("--x", type=float, help="explicit target (birkhoff/nonminimal)")
    runp.add_argument("--seed", type=_seed)
    runp.add_argument("--threads", type=int, help="must be 1: sampling is batched, not threaded")
    runp.add_argument("--budget", type=int,
                      help="candidate budget of thm3 only (env LATDIR_BUDGET sets it for every experiment)")
    runp.add_argument("--out", help="output directory")
    runp.set_defaults(**{f.name: f.default for f in dataclasses.fields(RunConfig) if f.name != "experiment"})

    verp = sub.add_parser("verify", help="run the acceptance suite")
    verp.add_argument("--quick", action="store_true", help="skip the slow statistical criteria and the level-9 census")
    verp.add_argument("--seed", type=_seed, default=None, help="override the pinned per-criterion seeds")
    verp.add_argument("--out", default=None, help="write verify-report.json here")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return verify(args.quick, args.seed, args.out)
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})
    try:
        return run(cfg)
    except (lm.CandidateBudgetExceeded, RowCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, lm.UnboundedRegion, ex.EmptyDenominator) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

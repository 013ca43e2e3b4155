import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdir import acceptance, census, cli, siegel
from latdir import experiments as ex
from latdir.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, RunConfig


def _is_json_module_text(path: Path) -> bool:
    """The file is `json.dumps(..., sort_keys=True, indent=2)` and a newline, byte for byte."""
    text = path.read_bytes().decode("ascii")
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def _strip_timestamp(path: Path) -> dict:
    obj = json.loads(path.read_text())
    obj.pop("timestamp", None)
    return obj


def test_run_flag_defaults_are_runconfig_defaults():
    args = vars(cli.build_parser().parse_args(["run", "thm1"]))
    del args["command"]
    assert args == dataclasses.asdict(RunConfig(experiment="thm1"))


def test_parser_is_built_once_and_runs_keep_their_own_flags(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "thm1", "--T", "500", "--n", "3", "--seed", "5", "--out", str(a)]) == EXIT_OK
    # the second run leaves out --seed and --n: the first run's values must not carry over
    assert cli.main(["run", "thm1", "--T", "400", "--out", str(b)]) == EXIT_OK
    defaults = dataclasses.asdict(RunConfig(experiment="thm1"))
    assert json.loads((a / "thm1-report.json").read_text())["config"] == {
        **defaults, "T": 500.0, "n": 3, "seed": 5, "out": str(a)}
    assert json.loads((b / "thm1-report.json").read_text())["config"] == {**defaults, "T": 400.0, "out": str(b)}


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(experiment="nope").validate()
    with pytest.raises(ValueError):
        RunConfig(experiment="biased-census", nmax=4).validate()
    with pytest.raises(ValueError):
        RunConfig(experiment="thm3", eps="0").validate()
    with pytest.raises(ValueError, match="--d must be 1"):
        RunConfig(experiment="birkhoff", d=3).validate()


def test_run_thm1_writes_report_and_trace(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["run", "thm1", "--d", "1", "--T", "500", "--A", "sign:-1",
                   "--n", "8", "--seed", "7", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "thm1-report.json").read_text())
    assert report["summary"]["used"] + report["summary"]["skipped"] == 8
    assert (out / "thm1-trace.csv").exists()


def test_run_biased_census_csv(tmp_path):
    out = tmp_path / "census"
    rc = cli.main(["run", "biased-census", "--nmax", "3", "--out", str(out)])
    assert rc == EXIT_OK
    lines = (out / "biased-census-rows.csv").read_text().splitlines()
    assert lines[0] == "n,r_label,r,m,q,in_R,sign"
    assert len(lines) > 10


# sha256 of `run biased-census --nmax 7`: the report with `timestamp` and
# `config.out` dropped, and the rows CSV as written
PINNED_CENSUS_7 = ("c72b4f09cd9ca28124cf0c8835ba296d1aebc8893041e4a5b6f8903315ff39ca",
                   "0848a4c8b3d50235da95f08b6f35834d27656447afe24c6a0e3606e62c81e0b4")


# the same for `run biased-census --nmax 9`: 105,404 rows, most of them in the
# big levels' runs of in-census multipliers
PINNED_CENSUS_9 = ("b82e20d729bf48f4ebf5dd3991747ea8afe4e47c34122a7d7691ad8fc5e9fa77",
                   "af177e877373c2d61cd06f8dcf902ddf93daaff1105dcd62b9fb811750b35c45")


def _digests(out: Path, experiment: str, csv_name: str) -> tuple[str, str]:
    """sha256 of a run's report with `timestamp` and `config.out` dropped,
    and of its CSV as written."""
    report = _strip_timestamp(out / f"{experiment}-report.json")
    report["config"].pop("out")
    return (hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest(),
            hashlib.sha256((out / csv_name).read_bytes()).hexdigest())


def _census_digests(out: Path, nmax: str) -> tuple[str, str]:
    assert cli.main(["run", "biased-census", "--nmax", nmax, "--out", str(out)]) == EXIT_OK
    return _digests(out, "biased-census", "biased-census-rows.csv")


def test_run_biased_census_pinned_digests(tmp_path):
    assert _census_digests(tmp_path / "census", "7") == PINNED_CENSUS_7


def test_run_biased_census_nmax9_pinned_digests(tmp_path):
    assert _census_digests(tmp_path / "census", "9") == PINNED_CENSUS_9


# sha256 of README's two `run thm1` commands: the report with `timestamp` and
# `config.out` dropped, and the trace CSV as written
PINNED_THM1 = {
    ("--d", "1", "--T", "100000", "--A", "sign:-1", "--n", "200", "--seed", "7"): (
        "789bb4f909f7616ee2b90baf2062d05ce33cc2cee6c045c0d99bf2097412cb66",
        "b9885eb379f3face9c1ea76e9644938ab1bf9aeaa755ea7b836f490b39b64077"),
    ("--d", "2", "--T", "10000", "--A", "hemisphere:1,0", "--n", "50", "--seed", "7"): (
        "7c75e68d13c54ff3170239e5808af60a92dcca83fae83c86d53bba3c6ed03b0b",
        "29c39468bf37b5bf8e04245cff5853ba2842c2d9e9aad2fec1332274bc31d173"),
}


@pytest.mark.parametrize("args", list(PINNED_THM1))
def test_run_thm1_pinned_digests(tmp_path, args):
    out = tmp_path / "thm1"
    assert cli.main(["run", "thm1", *args, "--out", str(out)]) == EXIT_OK
    assert _digests(out, "thm1", "thm1-trace.csv") == PINNED_THM1[args]


# the same for README's `run birkhoff` command, and for it with a direction
# set in the euclidean norm
PINNED_BIRKHOFF = {
    ("--x", "0.3183098861837907", "--N", "14"): (
        "bcaf0c20e332e2045788b8c16528dfbc7c99222cad181af8d9a1732716ed26b7",
        "a55e878ebe4572cadc0098b6054faa1e26e14e8b4da8359b155ab5608eb3dae9"),
    ("--x", "0.3183098861837907", "--N", "14", "--A", "sign:-1", "--norm", "euclidean"): (
        "4e81e6dd6408ba60e52bb0c65d9d662cffc201270c99bc32dbbb01ff312343af",
        "b90a23f639deb21bf8a68f8cd085df762ee640c7f4c67edef1e2c2d6ee922dea"),
}


@pytest.mark.parametrize("args", list(PINNED_BIRKHOFF))
def test_run_birkhoff_pinned_digests(tmp_path, args):
    out = tmp_path / "birkhoff"
    assert cli.main(["run", "birkhoff", *args, "--out", str(out)]) == EXIT_OK
    assert _digests(out, "birkhoff", "birkhoff-trace.csv") == PINNED_BIRKHOFF[args]


# the same for README's `run thm3` command: every rotation sample's bits
PINNED_THM3 = ("47344c7583955ad6f0c31ac7717f45e36e535ccf0efeaed49012a921a887d4bc",
               "b9158db6a17483a33b6235dee67f03738e4948f4a2cfacafc90272d51a4e6f0d")


def test_run_thm3_pinned_digests(tmp_path):
    out = tmp_path / "thm3"
    assert cli.main(["run", "thm3", "--d", "2", "--eps", "0.1", "--t", "6", "--M", "2000",
                     "--A", "hemisphere:1,0", "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert _digests(out, "thm3", "thm3-trace.csv") == PINNED_THM3


def test_run_biased_census_row_cap_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(census, "ROW_TOTAL_CAP", 100)
    out = tmp_path / "census"
    rc = cli.main(["run", "biased-census", "--nmax", "3", "--out", str(out)])
    assert rc == EXIT_BUDGET
    # the cap is checked from the exact row count, before any file is written
    assert not (out / "biased-census-report.json").exists()
    assert not (out / "biased-census-rows.csv").exists()


def test_run_thm3_and_budget_exit(tmp_path):
    out = tmp_path / "mc"
    rc = cli.main(["run", "thm3", "--d", "1", "--eps", "0.2", "--t", "2", "--M", "20",
                   "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads((out / "thm3-report.json").read_text())
    assert "ratio" in obj["result"]
    rc = cli.main(["run", "thm3", "--d", "2", "--eps", "0.1", "--t", "7", "--M", "4",
                   "--budget", "50", "--out", str(out)])
    assert rc == EXIT_BUDGET


def test_config_error_exits_2(tmp_path):
    assert cli.main(["run", "thm3", "--eps", "0", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert cli.main(["run", "biased-census", "--nmax", "4", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert cli.main(["run", "thm1", "--A", "wedge:1", "--out", str(tmp_path)]) == EXIT_CONFIG
    # one sample has no standard error; a sign set has no place in d = 2
    assert cli.main(["run", "thm3", "--d", "1", "--t", "2", "--M", "1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert cli.main(["run", "thm1", "--d", "2", "--T", "1000", "--n", "3", "--A", "sign:-1",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    assert cli.main(["run", "nonminimal", "--d", "2", "--T", "1000", "--A", "sign:-1",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    # birkhoff averages over one target, whatever --d says
    assert cli.main(["run", "birkhoff", "--d", "3", "--N", "4", "--x", "0.3",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    # --d below 1 is a config error, never a traceback
    for experiment in ("thm1", "thm3"):
        assert cli.main(["run", experiment, "--d", "0", "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["thm1", "--T", "inf"], ["nonminimal", "--d", "2", "--T", "inf"], ["thm3", "--t", "nan"],
    ["birkhoff", "--c", "-1"], ["thm3", "--c", "-2"], ["birkhoff", "--c", "0"], ["thm3", "--c", "nan"],
    ["nonminimal", "--d", "2", "--C", "-1"], ["thm1", "--C", "inf"], ["birkhoff", "--x", "nan"],
    ["thm3", "--d", "1", "--M", "10", "--t", "1", "--budget", "-5"]])
def test_bad_constants_are_config_errors(tmp_path, capsys, argv):
    # these used to crash, exit 3, or run with a constant other than the one reported
    assert cli.main(["run", *argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-5", "abc"])
def test_bad_budget_variable_is_a_config_error(tmp_path, capsys, monkeypatch, value):
    # -5 used to exit 3 from the first box, abc with an int() message naming no variable
    monkeypatch.setenv("LATDIR_BUDGET", value)

    def drawn(*args, **kwargs):
        raise AssertionError("a rotation was drawn")

    monkeypatch.setattr(siegel, "haar_rotations", drawn)
    assert cli.main(["run", "thm3", "--d", "1", "--M", "10", "--t", "1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"LATDIR_BUDGET must be a positive integer, got {value!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_budget_flag_is_thm3_only(tmp_path, capsys):
    # the other experiments never read --budget; LATDIR_BUDGET caps them all
    assert cli.main(["run", "thm1", "--d", "2", "--T", "1e4", "--n", "3", "--budget", "1",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "LATDIR_BUDGET" in capsys.readouterr().err
    assert not (tmp_path / "thm1-report.json").exists()


@pytest.mark.parametrize("argv", [["biased-census", "--nmax", "3"],
                                  ["biased-ratio", "--nmax", "5", "--A", "sign:-1"]])
def test_biased_experiments_reject_d_other_than_1(tmp_path, capsys, argv):
    # the biased number is one real target; --d 3 used to run a d = 1 report labelled d = 3
    assert cli.main(["run", *argv, "--d", "3", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "--d must be 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_threads_other_than_1_is_a_config_error(tmp_path, capsys):
    # sampling is batched, so a thread count would be silently ignored
    assert cli.main(["run", "thm3", "--d", "1", "--t", "2", "--M", "4", "--threads", "4",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "batched" in capsys.readouterr().err
    assert not (tmp_path / "thm3-report.json").exists()


def test_unknown_experiment_is_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["run", "telepathy"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [["run", "thm3", "--d", "1", "--M", "4"], ["verify", "--quick"]])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    # rejected before anything runs or is written
    with pytest.raises(SystemExit) as e:
        cli.main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_seed_beyond_2_53_is_written_as_a_string(tmp_path):
    # JSON readers take numbers as doubles, so a report writes big integers as decimal strings
    assert cli.main(["run", "thm1", "--T", "100", "--n", "3", "--seed", str(2**60),
                     "--out", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "thm1-report.json"
    obj = json.loads(path.read_text())
    assert obj["seed"] == obj["config"]["seed"] == str(2**60)
    assert _is_json_module_text(path)
    small = tmp_path / "small"
    assert cli.main(["run", "thm1", "--T", "100", "--n", "3", "--seed", str(2**53), "--out", str(small)]) == EXIT_OK
    obj = json.loads((small / "thm1-report.json").read_text())
    assert obj["seed"] == obj["config"]["seed"] == 2**53


def test_import_leaves_numpy_random_unloaded():
    # numpy.random adds about 18 ms to every start-up; the seed streams load it on use
    code = "import sys, latdir.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
                         check=True)
    assert out.stdout.strip() == "False"


def test_reports_reproducible_modulo_timestamp(tmp_path):
    args = ["run", "biased-ratio", "--nmax", "5", "--eps", "0.01", "--A", "sign:-1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == EXIT_OK
    assert cli.main(args + ["--out", str(b)]) == EXIT_OK
    ra = _strip_timestamp(a / "biased-ratio-report.json")
    rb = _strip_timestamp(b / "biased-ratio-report.json")
    ra["config"].pop("out")
    rb["config"].pop("out")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert (a / "biased-ratio-trace.csv").read_text() == (b / "biased-ratio-trace.csv").read_text()


def test_run_nonminimal(tmp_path):
    out = tmp_path / "nm"
    rc = cli.main(["run", "nonminimal", "--d", "2", "--T", "1000", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads((out / "nonminimal-report.json").read_text())
    assert obj["summary"]["max_diagonal_residual"] <= 1e-9


def test_run_without_trace_rows_writes_no_csv(tmp_path):
    # at T = 1 and C = 0.001 there is no approximate, so no witness row
    out = tmp_path / "nm"
    rc = cli.main(["run", "nonminimal", "--d", "2", "--T", "1", "--C", "0.001", "--out", str(out)])
    assert rc == EXIT_OK
    assert json.loads((out / "nonminimal-report.json").read_text())["summary"]["total"] == 0
    assert not (out / "nonminimal-trace.csv").exists()


def test_run_birkhoff(tmp_path):
    out = tmp_path / "bk"
    rc = cli.main(["run", "birkhoff", "--x", "0.3183098861837907", "--N", "8", "--out", str(out)])
    assert rc == EXIT_OK
    obj = json.loads((out / "birkhoff-report.json").read_text())
    assert obj["summary"]["additivity_exact"] is True
    assert _is_json_module_text(out / "birkhoff-report.json")


def test_verify_quick(tmp_path, capsys):
    rc = cli.main(["verify", "--quick", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "criteria passed" in out
    report = json.loads((tmp_path / "verify-report.json").read_text())
    assert len(report["results"]) == 12
    assert _is_json_module_text(tmp_path / "verify-report.json")
    skipped = [r for r in report["results"] if "skipped" in r["detail"]]
    assert skipped, "--quick should skip the slow statistical criteria"


def test_verify_reports_identical_across_runs(tmp_path, capsys):
    # seed 9 also satisfies the seed-sensitive shell-average band (see README)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["verify", "--quick", "--seed", "9", "--out", str(a)]) == EXIT_OK
    assert cli.main(["verify", "--quick", "--seed", "9", "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    ra = _strip_timestamp(a / "verify-report.json")
    rb = _strip_timestamp(b / "verify-report.json")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_a_trace_that_fails_part_way_leaves_no_file(tmp_path):
    # the report and the trace are renamed into place only after the last
    # chunk; a failure used to leave a truncated CSV beside a finished report
    def chunks():
        yield "i,x\r\n"
        yield "0,1\r\n"
        raise RuntimeError("trace failed")

    cfg = RunConfig(experiment="thm1", out=str(tmp_path))
    with pytest.raises(RuntimeError, match="trace failed"):
        cli._write_report(cfg, {"experiment": "thm1"}, chunks(), "thm1-trace")
    assert not (tmp_path / "thm1-report.json").exists()
    assert not (tmp_path / "thm1-trace.csv").exists()
    assert not list(tmp_path.iterdir())


def test_write_report_renames_both_files_into_place(tmp_path):
    cfg = RunConfig(experiment="thm1", out=str(tmp_path))
    path = cli._write_report(cfg, {"experiment": "thm1"}, iter(["i,x\r\n", "0,1\r\n"]), "thm1-trace")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["thm1-report.json", "thm1-trace.csv"]
    assert path == tmp_path / "thm1-report.json"
    assert (tmp_path / "thm1-trace.csv").read_bytes() == b"i,x\r\n0,1\r\n"
    cli._write_report(cfg, {"experiment": "thm1"}, iter([]), "thm1-trace")
    assert json.loads(path.read_text())["experiment"] == "thm1"


_LINES = ["n,r_label,r,m,q,in_R,sign\r\n", "0,unit,0,1,1,True,1\r\n", "0,unit,0,2,2,False,-1\r\n"]


@pytest.mark.parametrize("kind", ["str", "bytes", "numpy"])
def test_write_files_takes_str_bytes_and_numpy_blocks_alike(tmp_path, kind):
    # the census CSV comes as uint8 row blocks, other traces as str lines;
    # the same text makes the same file bytes either way
    make = {"str": str, "bytes": str.encode,
            "numpy": lambda line: np.frombuffer(line.encode(), np.uint8).reshape(1, -1)}[kind]
    blocks = [make(line) for line in _LINES]
    cli._write_files(tmp_path, {"a.csv": iter(blocks), "b.json": ("{}", "\n"), "empty.csv": iter([])})
    assert (tmp_path / "a.csv").read_bytes() == "".join(_LINES).encode()
    assert (tmp_path / "b.json").read_bytes() == b"{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json"]


def test_a_numpy_block_trace_that_fails_part_way_leaves_no_file(tmp_path):
    def blocks():
        yield np.frombuffer(b"n,m\r\n1,2\r\n", np.uint8).reshape(2, -1)
        yield np.frombuffer(b"1,3\r\n", np.uint8).reshape(1, -1)
        raise RuntimeError("census failed")

    cfg = RunConfig(experiment="biased-census", out=str(tmp_path))
    with pytest.raises(RuntimeError, match="census failed"):
        cli._write_report(cfg, {"experiment": "biased-census"}, blocks(), "biased-census-rows")
    assert not list(tmp_path.iterdir())


_TRICKY = '"\\[]{},: \x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'
_KEYS = st.text(st.sampled_from(_TRICKY) | st.characters(), max_size=6)
_LEAVES = st.one_of(
    _KEYS, st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**53 - 2, max_value=2**70), st.integers(max_value=-2**53 + 2),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.sampled_from([2**53, -2**53, 2**53 + 1, -2**53 - 1]).map(np.int64), st.fractions(),
    st.floats(), st.floats().map(np.float64), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.just({}), st.just([]), st.just(()))
_TREES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_report_writer_is_json_dumps(obj):
    # numpy scalars as Python numbers, Fractions and ints beyond 2^53 as strings
    assert cli._json_text(obj) == json.dumps(ex._jsonable(obj), sort_keys=True, indent=2)


def test_report_writer_nested_100_deep():
    obj = "leaf"
    for i in range(50):
        obj = {"k": [i, obj], "e": {}}
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


# np.bool_ is no np.integer, so neither the writer nor json.dumps(_jsonable(obj)) takes it
@pytest.mark.parametrize("obj", [{"a": {1, 2}}, [np.bool_(True)], {"x": [object()]}, {1: "a"}, {"a": 1, 2: "b"}])
def test_report_writer_rejects_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


@pytest.mark.parametrize("obj, text", [([np.int64(3)], "[\n  3\n]"),
                                       ({"q": np.int64(2**62)}, '{\n  "q": "4611686018427387904"\n}'),
                                       ([Fraction(-1, 3), np.float32(0.5)], '[\n  "-1/3",\n  0.5\n]')])
def test_report_writer_converts_numpy_scalars_and_fractions(obj, text):
    assert cli._json_text(obj) == text == json.dumps(ex._jsonable(obj), sort_keys=True, indent=2)


def test_report_writer_leaves_no_garbage():
    # a self-recursive closure over the chunk list would be a reference cycle
    # that keeps every report's text alive until the cyclic GC runs
    obj = {"records": [{"x": [0.5, np.float64(0.25)], "q": "12345678901234567890"}] * 50, "ok": True}
    gc.collect()
    gc.disable()
    try:
        cli._json_text(obj)
        assert gc.collect() == 0
    finally:
        gc.enable()


class _FullDisk:
    """A file that writes part of the first chunk, then fails as a full disk does."""

    def __init__(self, path, *args, **kwargs):
        self.fh = open(path, *args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_verify_report_that_fails_part_way_leaves_no_file(tmp_path, monkeypatch, capsys):
    # a write that fails part way must not leave a truncated verify-report.json behind
    result = acceptance.CheckResult("1 criterion", True, "ok", 0.0)
    monkeypatch.setattr(cli.acc, "run_all", lambda quick, seed: [result])
    monkeypatch.setattr(cli, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space"):
        cli.main(["verify", "--out", str(tmp_path)])
    capsys.readouterr()
    assert not list(tmp_path.iterdir())

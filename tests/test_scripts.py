"""The scripts in scripts/ run against the public API and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_census_table():
    lines = _run("census_table.py", "--nmax", "5")
    assert "  L_5 =     216  >= floor((n+1)^((n+1)/2)) = 216" in lines


def test_tgrid_convergence():
    lines = _run("tgrid_convergence.py", "--d", "2", "--M", "10", "--t-max", "1")
    assert lines == [
        "d = 2, M = 10, eps = 0.1, lattice = Z^3",
        "    t   box mean     se  region mean     se  targets: box 1.3720, region 3.6169",
        "  0.0     0.6000  0.221       3.5000  0.224",
        "  0.5     1.6000  0.221       4.0000  0.298",
        "  1.0     1.5000  0.167       4.0000  0.333",
        "",
        "the means should settle on the targets as t grows; no rate is claimed",
    ]

#!/usr/bin/env python3
"""Sweep the flow time t and watch the rotation-averaged Siegel transform
approach the plain integral of the test function.

The limit statement carries no rate, so this script just reports the t-grid:
for each t it prints the Monte Carlo mean, its standard error, and the target
integral, for both a box indicator and the thinning-region indicator whose
average feeds the direction-ratio experiments.  Both are read off one Monte
Carlo pass per t, so each rotation is drawn and reduced once.

Usage: python scripts/tgrid_convergence.py [--d 2] [--M 800] [--seed 3]
"""

import argparse
import math

import numpy as np

from latdir.lattice import Lattice, RegionSpec
from latdir.siegel import BoxIndicator, RegionIndicator, spherical_averages
from latdir.sphere import Hemisphere, SignSet


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--M", type=int, default=800)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--t-max", type=float, default=6.0)
    args = ap.parse_args()

    d = args.d
    lat = Lattice(np.eye(d + 1))
    A = Hemisphere(tuple([1.0] + [0.0] * (d - 1))) if d > 1 else SignSet(frozenset({-1}))
    box = BoxIndicator(tuple([-0.7] * d + [0.2]), tuple([0.7] * d + [0.9]))
    region = RegionIndicator(RegionSpec("R", d, T=1.0, c=1.0, eps=args.eps, A=A))

    ts = [0.5 * k for k in range(0, int(2 * args.t_max) + 1)]
    print(f"d = {d}, M = {args.M}, eps = {args.eps}, lattice = Z^{d+1}")
    print(f"{'t':>5}  {'box mean':>9} {'se':>6}  {'region mean':>11} {'se':>6}"
          f"  targets: box {box.integral():.4f}, region {region.integral():.4f}")
    for t in ts:
        eb, er = spherical_averages([box, region], lat, t, args.M, args.seed)
        print(f"{t:5.1f}  {eb.mean:9.4f} {eb.stderr:6.3f}  {er.mean:11.4f} {er.stderr:6.3f}")
    print("\nthe means should settle on the targets as t grows; no rate is claimed")


if __name__ == "__main__":
    main()

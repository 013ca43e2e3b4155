#!/usr/bin/env python3
"""Print the exact census of the biased number: per-level remainder classes,
the L_n counts against their floor((n+1)^{(n+1)/2}) bounds, and the in-window
sign ratios that exhibit the direction bias.

Usage: python scripts/census_table.py [--nmax 7]
"""

import argparse
import math
from fractions import Fraction

from latdir.census import build_census


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=7, help="largest level (odd, <= 9)")
    args = ap.parse_args()

    rep = build_census(args.nmax)

    print("level table (in-census multiplier intervals per remainder class)")
    for lv in rep.levels:
        print(f"  n = {lv.n}: q_n = {lv.q_n}, a_(n+1) = {lv.a_next}")
        for cls in lv.classes:
            if cls.pieces:
                spans = ", ".join(f"m in [{a},{b}] sign {s:+d}" for a, b, s in cls.pieces)
                print(f"      r = {cls.label:<9} ({cls.r}): {spans}")

    print("\nremainder-0 counts vs the lower bound")
    for n, L in rep.l_values.items():
        bound = math.isqrt((n + 1) ** (n + 1))
        print(f"  L_{n} = {L:>7}  >= floor((n+1)^((n+1)/2)) = {bound}")

    print("\nsign ratios over the window [max(1, ceil(eps T)), T]")
    for eps in (Fraction(0), Fraction(1, 100), Fraction(1, 10)):
        print(f"  eps = {eps}")
        for T in rep.thresholds:
            lo = max(1, math.ceil(eps * T))
            minus, plus = rep.window_counts(lo, T)
            total = minus + plus
            print(f"    T = {T:>16}: minus {minus:>5}, plus {plus:>3}, "
                  f"minus share {minus/total:.4f}")
    print("\nthe minus share climbs toward 1 along the thresholds: the"
          " directions of these approximates are biased, not equidistributed")


if __name__ == "__main__":
    main()

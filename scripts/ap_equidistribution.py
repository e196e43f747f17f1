#!/usr/bin/env python3
"""Mobius and von Mangoldt in arithmetic progressions: degree sweeps of the
exact sums and their normalized residuals.

    python3 scripts/ap_equidistribution.py [--q 3^2] [--M T] [--a 1] [--dmax 7]

Degrees up to 7 over GF(9) run on the numpy sieve in seconds.  From degree 8
on, q^D is past config.BULK_SIZE_CAP and each sum runs per polynomial:
--dmax 8 over GF(9) does not finish in two minutes.
"""

import argparse

from ffmobius import field_new, parse_poly
from ffmobius.experiments import lambda_ap_sum, mobius_ap_sum


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", default="3^2")
    ap.add_argument("--M", default="T")
    ap.add_argument("--a", default="1")
    ap.add_argument("--dmin", type=int, default=2)
    ap.add_argument("--dmax", type=int, default=7)
    args = ap.parse_args()
    if "^" in args.q:
        p, k = (int(v) for v in args.q.split("^"))
    else:
        p, k = int(args.q), 1
    ctx = field_new(p, k)
    M = parse_poly(ctx, args.M)
    a = parse_poly(ctx, args.a)
    print("D,mu_sum,mu_ratio,lambda_sum,lambda_residual_ratio")
    for D in range(max(args.dmin, M.degree), args.dmax + 1):
        mu = mobius_ap_sum(ctx, D, M, a)
        lam = lambda_ap_sum(ctx, D, M, a)
        print(f"{D},{mu.value},{mu.ratio:.6f},{lam.value},{lam.ratio:.6f}")


if __name__ == "__main__":
    main()

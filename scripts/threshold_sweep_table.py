#!/usr/bin/env python3
"""Print a table of the maximum delta-clique size against the 2 ln n / ln(1/delta) threshold.

Runs the seeded threshold sweep in exact mode and reports, per n, the median
clique size, its ratio to k0, and whether every trial stayed inside the
[floor(0.5 k0), ceil(1.25 k0)] band.  Writes the per-trial CSV next to the
aggregate JSON when --outdir is given.

    python3 scripts/threshold_sweep_table.py --ns 50,100,200,300 --delta 0.3 --trials 20
"""

import argparse

from tempclique.experiments import threshold_sweep
from tempclique.solver import SolverConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", default="50,100,200,300")
    ap.add_argument("--delta", type=float, default=0.3)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()

    ns = [int(tok) for tok in args.ns.split(",")]
    cfg = SolverConfig(mode=args.mode)
    rpt = threshold_sweep(ns, args.delta, args.trials, cfg, seed=args.seed)

    print(f"delta = {args.delta}, {args.trials} trials per n, mode = {args.mode}, seed = {args.seed}")
    print(f"{'n':>6} {'k0':>8} {'median w':>9} {'w/k0':>7} {'in band':>8}")
    for n in ns:
        rows = [t for t in rpt.trials if t["n"] == n]
        k0 = rpt.extras["k0"][str(n)]
        med = rpt.extras["median_omega"][str(n)]
        in_band = all(t["upper_ok"] and t["lower_ok"] for t in rows)
        print(f"{n:>6} {k0:>8.4f} {med:>9.1f} {med / k0:>7.3f} {str(in_band):>8}")

    if args.outdir:
        csv_path, json_path = rpt.write(args.outdir)
        print(f"wrote {csv_path} and {json_path}")


if __name__ == "__main__":
    main()

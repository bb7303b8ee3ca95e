#!/usr/bin/env python3
"""Calibrate the acceptance band for the optimum clique's interval width.

For each calibration seed, runs the interval-width experiment and prints the
median and minimum of width/delta over the trials.  The acceptance suite
freezes its band from a run of this script (seeds 101, 202, 303 at n = 200,
delta = 0.3 gave medians 0.9650 / 0.9686 / 0.9794 and a per-trial minimum of
0.9001, hence the median >= 0.9 band in tests/test_acceptance.py).

    python3 scripts/calibrate_interval_width.py --n 200 --delta 0.3 --trials 20
"""

import argparse

from tempclique.experiments import interval_width_experiment
from tempclique.solver import SolverConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--delta", type=float, default=0.3)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seeds", default="101,202,303")
    args = ap.parse_args()

    cfg = SolverConfig(mode="exact")
    print(f"n = {args.n}, delta = {args.delta}, {args.trials} exact trials per seed")
    print(f"{'seed':>6} {'median':>8} {'min':>8} {'max':>8}")
    medians = []
    for seed in (int(tok) for tok in args.seeds.split(",")):
        rpt = interval_width_experiment(args.n, args.delta, args.trials, cfg, seed=seed)
        ratios = [t["value"] for t in rpt.trials]
        medians.append(rpt.extras["median_ratio"])
        print(
            f"{seed:>6} {rpt.extras['median_ratio']:>8.4f} "
            f"{min(ratios):>8.4f} {max(ratios):>8.4f}"
        )
    print(f"worst median over seeds: {min(medians):.4f}")


if __name__ == "__main__":
    main()

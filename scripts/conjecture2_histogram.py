#!/usr/bin/env python3
"""Probe where the optimum clique's interval sits inside the planted window.

On full-window planted instances every label of the hidden clique falls in
[0, delta), so if maximum cliques carried no positional bias their interval's
left endpoint, rescaled by its feasible range, would look uniform.  This
prints the left-endpoint histogram and the KS statistic of the normalized
endpoints against uniform[0, 1] — descriptive output, nothing is asserted.

    python3 scripts/conjecture2_histogram.py --n 60 --delta 0.4 --trials 50
"""

import argparse

from tempclique.experiments import conjecture2_probe
from tempclique.solver import SolverConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--delta", type=float, default=0.4)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()

    rpt = conjecture2_probe(
        args.n, args.delta, args.trials, SolverConfig(mode="exact"), seed=args.seed
    )

    counts = rpt.extras["histogram_counts"]
    edges = rpt.extras["histogram_edges"]
    peak = max(max(counts), 1)
    print(f"n = {args.n}, delta = {args.delta}, {args.trials} trials, seed = {args.seed}")
    print(f"left endpoint of the optimum interval (mean {rpt.mean:.4f}):")
    for lo, hi, c in zip(edges, edges[1:], counts):
        bar = "#" * round(40 * c / peak)
        print(f"  [{lo:.2f}, {hi:.2f}) {c:>5} {bar}")
    ks = rpt.extras["ks_statistic"]  # None when no trial had a normalized endpoint
    ks_text = "n/a" if ks is None else f"{ks:.4f}"
    print(
        f"KS statistic of normalized left endpoints vs uniform[0,1]: {ks_text} "
        f"({rpt.extras['normalized_count']} in-window trials)"
    )

    if args.outdir:
        csv_path, json_path = rpt.write(args.outdir)
        print(f"wrote {csv_path} and {json_path}")


if __name__ == "__main__":
    main()

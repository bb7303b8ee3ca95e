"""Command-line interface: generate / solve / analyze / experiment.

Exit codes: 0 on success, 1 on usage or input errors (bad flags, malformed
files, out-of-range parameters, flags the chosen experiment or quantity does
not read), 2 on infeasible configurations (guards like bruteforce beyond
n = 20 or exact sweeps beyond n = 1000, or no gcc to build the exact and
heuristic solvers' kernel).
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys

from .analytics import (
    expected_clique_count,
    k0_threshold,
    min_density,
    minmax_joint_density,
    second_moment_overlap_bound,
    window_probability,
)
from .experiments import (
    conjecture2_probe,
    estimate_clique_count,
    estimate_window_probability,
    reduction_experiment,
    threshold_sweep,
)
from .graphs import generate_random_complete
from .io import GraphFormatError, dumps_temporal_graph, read_temporal_graph, write_temporal_graph
from .solver import InfeasibleConfigError, solve_max_delta_clique


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors raise instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def _fresh_seed() -> int:
    return secrets.randbits(63)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    seed = _fresh_seed()
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tempclique", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random complete labeled instance")
    p_gen.add_argument("--n", type=int, required=True, help="number of vertices")
    p_gen.add_argument("--seed", type=int, default=None, help="RNG seed (fresh one printed to stderr if omitted)")
    p_gen.add_argument("--out", default="-", help="output path, or - for stdout")
    p_gen.add_argument("--format", choices=("json", "text"), default="json")

    p_solve = sub.add_parser("solve", help="find a maximum delta-temporal clique")
    p_solve.add_argument("--in", dest="infile", required=True, help="graph file (JSON or text)")
    p_solve.add_argument("--delta", type=float, required=True)
    p_solve.add_argument("--mode", choices=("exact", "bruteforce", "heuristic"), default="exact")
    p_solve.add_argument("--budget-secs", type=float, default=None)
    p_solve.add_argument("--seed", type=int, default=0, help="heuristic RNG seed")

    p_an = sub.add_parser("analyze", help="evaluate a closed-form quantity")
    p_an.add_argument("--what", required=True, choices=tuple(_ANALYZE))
    p_an.add_argument("--n", type=int)
    p_an.add_argument("--k", type=int)
    p_an.add_argument("--delta", type=float)
    p_an.add_argument("--h", type=int)
    p_an.add_argument("--m", type=int)
    p_an.add_argument("--x", type=float)
    p_an.add_argument("--y", type=float)

    p_ex = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_ex.add_argument("--name", required=True, choices=tuple(_EXPERIMENTS))
    p_ex.add_argument("--n", type=int)
    p_ex.add_argument("--ns", help="comma-separated n values for threshold sweeps")
    p_ex.add_argument("--k", type=int)
    p_ex.add_argument("--h", type=int)
    p_ex.add_argument("--delta", type=float)
    p_ex.add_argument("--trials", type=int, required=True)
    p_ex.add_argument("--seed", type=int, default=None, help="master seed (fresh one printed to stderr if omitted)")
    p_ex.add_argument("--mode", choices=("exact", "heuristic"), help="solver mode (default: exact)")
    p_ex.add_argument(
        "--threads",
        type=int,
        default=None,
        help="ignored: trials run one at a time; accepted so older command lines still parse",
    )
    p_ex.add_argument("--outdir", default=".")
    p_ex.add_argument("--format", choices=("json", "csv"), default="json", help="what to print on stdout")
    return parser


def _check_flags(
    args: argparse.Namespace, required: list[str], optional: list[str], flags: list[str], context: str
) -> None:
    """Require every flag in `required`; reject any other of `flags` that is
    set and not in `optional`."""
    missing = [f"--{n}" for n in required if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"{context} requires {', '.join(missing)}")
    unread = [
        "--" + f.replace("_", "-")
        for f in flags
        if f not in required + optional and getattr(args, f) is not None
    ]
    if unread:
        raise _UsageError(f"{context} does not read {', '.join(unread)}")


def _cmd_generate(args) -> int:
    if args.n < 1:
        raise _UsageError("--n must be at least 1")
    seed = _resolve_seed(args.seed)
    tg = generate_random_complete(args.n, seed)
    if args.out == "-":
        sys.stdout.write(dumps_temporal_graph(tg, fmt=args.format))
    else:
        write_temporal_graph(tg, args.out, fmt=args.format)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    tg = read_temporal_graph(args.infile)
    res = solve_max_delta_clique(tg, args.delta, args.mode, args.budget_secs, seed=args.seed)
    doc = {
        "size": res.clique.size,
        "vertices": list(res.clique.vertices),
        "interval_min": res.clique.interval_min,
        "interval_max": res.clique.interval_max,
        "optimal": res.optimal,
        "mode": res.mode,
        "wall_time": res.wall_time,
    }
    print(json.dumps(doc))
    return 0


# --what -> (required flags, optional flags, closed form called with the
# given flags as keywords).  The flags given, in this order, are the params
# of the printed result; any other of `_ANALYZE_FLAGS` that is set is a
# usage error.
_ANALYZE = {
    "window-prob": (["h", "delta"], [], window_probability),
    "expected-count": (["n", "k", "delta"], [], expected_clique_count),
    "k0": (["n", "delta"], [], k0_threshold),
    "overlap-bound": (["n", "k", "delta"], [], second_moment_overlap_bound),
    # the joint min/max density with --y, the min density otherwise
    "density": (
        ["m", "x"],
        ["y"],
        lambda m, x, y=None: min_density(m, x) if y is None else minmax_joint_density(m, x, y),
    ),
}


_ANALYZE_FLAGS = ["n", "k", "delta", "h", "m", "x", "y"]


def _cmd_analyze(args) -> int:
    required, optional, closed_form = _ANALYZE[args.what]
    _check_flags(args, required, optional, _ANALYZE_FLAGS, args.what)
    params = {f: getattr(args, f) for f in required + optional if getattr(args, f) is not None}
    value = closed_form(**params)
    print(json.dumps({"what": args.what, "params": params, "value": value}))
    return 0


def _parse_ns(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"--ns must be comma-separated integers, got {text!r}") from None


# --name -> (required flags, optional flags, run(args, seed) -> ExperimentReport).
# Any other experiment flag that is set is a usage error.  The lambdas look
# the experiment functions up as module globals at call time, so a caller
# that replaces one of them here (a tracer, say) is honoured.
_SOLVER_FLAGS = ["mode"]
_EXPERIMENTS = {
    "window-prob": (
        ["h", "delta"],
        [],
        lambda a, seed: estimate_window_probability(a.h, a.delta, a.trials, seed),
    ),
    "clique-count": (
        ["n", "k", "delta"],
        [],
        lambda a, seed: estimate_clique_count(a.n, a.k, a.delta, a.trials, seed),
    ),
    "threshold": (
        ["ns", "delta"],
        _SOLVER_FLAGS,
        lambda a, seed: threshold_sweep(_parse_ns(a.ns), a.delta, a.trials, a.mode or "exact", seed),
    ),
    "reduction": (
        ["n", "delta"],
        _SOLVER_FLAGS,
        lambda a, seed: reduction_experiment(a.n, a.delta, a.trials, a.mode or "exact", seed),
    ),
    "conjecture2": (
        ["n", "delta"],
        _SOLVER_FLAGS,
        lambda a, seed: conjecture2_probe(a.n, a.delta, a.trials, a.mode or "exact", seed),
    ),
}
# The experiment flags that only some experiments read.
_EXPERIMENT_FLAGS = ["n", "ns", "k", "h", *_SOLVER_FLAGS]


def _cmd_experiment(args) -> int:
    seed = _resolve_seed(args.seed)
    required, optional, run = _EXPERIMENTS[args.name]
    _check_flags(args, required, optional, _EXPERIMENT_FLAGS, args.name)
    report = run(args, seed)
    csv_path, json_path = report.write(args.outdir)
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    if args.format == "csv":
        sys.stdout.write(report.csv_text())
    else:
        sys.stdout.write(report.json_text())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_experiment(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleConfigError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

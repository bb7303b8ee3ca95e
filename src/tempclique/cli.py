"""Command-line interface: generate / solve / analyze / experiment.

Exit codes: 0 on success, 1 on usage or input errors (bad flags, malformed
files, out-of-range parameters), 2 on infeasible configurations (guards like
bruteforce beyond n = 20 or exact sweeps beyond n = 300).
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
    interval_width_experiment,
    reduction_experiment,
    threshold_sweep,
)
from .graphs import generate_random_complete
from .io import GraphFormatError, dumps_temporal_graph, read_temporal_graph, write_temporal_graph
from .solver import InfeasibleConfigError, SolverConfig, solve_max_delta_clique


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
    p_solve.add_argument("--restarts", type=int, default=None, help="heuristic restarts per anchor")

    p_an = sub.add_parser("analyze", help="evaluate a closed-form quantity")
    p_an.add_argument(
        "--what",
        required=True,
        choices=("window-prob", "expected-count", "k0", "overlap-bound", "density"),
    )
    p_an.add_argument("--n", type=int)
    p_an.add_argument("--k", type=int)
    p_an.add_argument("--delta", type=float)
    p_an.add_argument("--h", type=int)
    p_an.add_argument("--m", type=int)
    p_an.add_argument("--x", type=float)
    p_an.add_argument("--y", type=float)

    p_ex = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_ex.add_argument(
        "--name",
        required=True,
        choices=(
            "window-prob",
            "clique-count",
            "threshold",
            "interval-width",
            "reduction",
            "conjecture2",
        ),
    )
    p_ex.add_argument("--n", type=int)
    p_ex.add_argument("--ns", help="comma-separated n values for threshold sweeps")
    p_ex.add_argument("--k", type=int)
    p_ex.add_argument("--h", type=int)
    p_ex.add_argument("--delta", type=float)
    p_ex.add_argument("--trials", type=int, required=True)
    p_ex.add_argument("--seed", type=int, default=None, help="master seed (fresh one printed to stderr if omitted)")
    p_ex.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p_ex.add_argument(
        "--threads",
        type=int,
        default=None,
        help="ignored: trials run one at a time; accepted so older command lines still parse",
    )
    p_ex.add_argument("--outdir", default=".")
    p_ex.add_argument("--format", choices=("json", "csv"), default="json", help="what to print on stdout")
    p_ex.add_argument("--budget-secs", type=float, default=None)
    p_ex.add_argument("--restarts", type=int, default=None)
    p_ex.add_argument(
        "--delta-scaling",
        choices=("fixed", "invloglog"),
        default="fixed",
        help="threshold sweeps only: invloglog uses delta(n) = 1/ln(ln n)",
    )
    return parser


def _require(args: argparse.Namespace, names: list[str], context: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"{context} requires {', '.join(missing)}")


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


def _solver_config(args) -> SolverConfig:
    kwargs = {"mode": args.mode, "time_budget": args.budget_secs}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    return SolverConfig(**kwargs)


def _cmd_solve(args) -> int:
    tg = read_temporal_graph(args.infile)
    cfg = _solver_config(args)
    res = solve_max_delta_clique(tg, args.delta, cfg, seed=args.seed)
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


def _cmd_analyze(args) -> int:
    what = args.what
    if what == "window-prob":
        _require(args, ["h", "delta"], what)
        value = window_probability(args.h, args.delta)
        params = {"h": args.h, "delta": args.delta}
    elif what == "expected-count":
        _require(args, ["n", "k", "delta"], what)
        value = expected_clique_count(args.n, args.k, args.delta)
        params = {"n": args.n, "k": args.k, "delta": args.delta}
    elif what == "k0":
        _require(args, ["n", "delta"], what)
        value = k0_threshold(args.n, args.delta)
        params = {"n": args.n, "delta": args.delta}
    elif what == "overlap-bound":
        _require(args, ["n", "k", "delta"], what)
        value = second_moment_overlap_bound(args.n, args.k, args.delta)
        params = {"n": args.n, "k": args.k, "delta": args.delta}
    else:  # density: joint min/max with --y, min otherwise
        _require(args, ["m", "x"], what)
        if args.y is not None:
            value = minmax_joint_density(args.m, args.x, args.y)
            params = {"m": args.m, "x": args.x, "y": args.y}
        else:
            value = min_density(args.m, args.x)
            params = {"m": args.m, "x": args.x}
    print(json.dumps({"what": what, "params": params, "value": value}))
    return 0


def _parse_ns(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"--ns must be comma-separated integers, got {text!r}") from None


def _cmd_experiment(args) -> int:
    seed = _resolve_seed(args.seed)
    name = args.name
    if name == "window-prob":
        _require(args, ["h", "delta"], name)
        report = estimate_window_probability(args.h, args.delta, args.trials, seed)
    elif name == "clique-count":
        _require(args, ["n", "k", "delta"], name)
        report = estimate_clique_count(args.n, args.k, args.delta, args.trials, seed)
    else:
        cfg = _solver_config(args)
        if name == "threshold":
            if args.ns is None:
                raise _UsageError("threshold requires --ns")
            if args.delta_scaling == "fixed":
                _require(args, ["delta"], name)
            report = threshold_sweep(
                _parse_ns(args.ns),
                args.delta if args.delta is not None else 0.0,
                args.trials,
                cfg,
                seed,
                delta_scaling=args.delta_scaling,
            )
        elif name == "interval-width":
            _require(args, ["n", "delta"], name)
            report = interval_width_experiment(args.n, args.delta, args.trials, cfg, seed)
        elif name == "reduction":
            _require(args, ["n", "delta"], name)
            report = reduction_experiment(args.n, args.delta, args.trials, cfg, seed)
        else:  # conjecture2
            _require(args, ["n", "delta"], name)
            report = conjecture2_probe(args.n, args.delta, args.trials, cfg, seed)
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

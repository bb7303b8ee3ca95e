"""Closed-loop benchmark of the tempclique command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  One single-process client runs ops one at
a time.  Each op is one in-process `tempclique.cli.main(argv)` call with its
stdout captured, and gets its own seed derived from the workload seed.  Every
op's output is checked by `checks.py`, which does not use tempclique, and, for
seeds with stored references, against `refs.json`.

--trace 0 measures the end-to-end metrics with tracing off; on workloads
whose time goes to the interpreter, op and set-up times are scaled by the
host speed that `speed_loop_s` reads just before and after each.  --trace 1
alternates untraced and traced ops on the same inputs and reports the
per-layer metrics of `tracer.py`.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; a result record with
provenance, and under --trace 1 every span, is written below `.bench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import numpy as np
from checks import CheckFailed
from tracer import Tracer, median_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = Path(__file__).resolve().parent / "refs.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; m = len(sys.modules); t = time.perf_counter(); import tempclique.cli; "
    "print(time.perf_counter() - t, len(sys.modules) - m, tempclique.cli.__file__)"
)
# Interpreter-bound times are scaled to a host on which `speed_loop_s` reads this.
REFERENCE_LOOP_S = 0.005
_LOOP_BITSETS = [random.Random(0).getrandbits(300) for _ in range(256)]
_LOOP_BUFFER = [0] * 1024


def speed_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes now, the fastest of three tries.

    The loop mixes small-int arithmetic, list stores and bit operations on
    300-bit ints, as the exact solver's bitset loops do.  It is the
    benchmark's own code and allocates nothing the garbage collector tracks,
    so no change to tempclique can move it: it reads the host's current speed
    for interpreter-bound code, which on a shared host drifts by a quarter
    within minutes.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = acc = 0
        for i in range(20000):
            x = (x * 31 + i) & 0xFFFFFFFF
            _LOOP_BUFFER[i & 1023] = x
            acc += (_LOOP_BITSETS[x & 255] & _LOOP_BITSETS[i & 255]).bit_count()
        best = min(best, time.perf_counter() - start)
    return best


def bracketed(work):
    """Call work(); return its result and the mean of the speed_loop_s()
    readings taken just before and just after it."""
    before = speed_loop_s()
    result = work()
    return result, (before + speed_loop_s()) / 2


def sub_seed(seed: int, kind: str, index: int) -> int:
    """A 63-bit seed for the index-th op or instance of a run seeded by `seed`."""
    digest = hashlib.sha256(f"{seed}:{kind}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Experiment:
    """`tempclique experiment` ops; each op's CSV is checked and digested."""

    def __init__(self, args: list[str], trials_per_op: int, verify, size_note: str, interpreted: bool):
        self.args = args
        self.trials_per_op = trials_per_op
        self.verify = verify  # (csv, json, op seed) -> clique sizes, or raises CheckFailed
        self.size_note = size_note
        self.interpreted = interpreted  # time spent mostly in the interpreter, so it follows speed_loop_s

    def setup(self, cli, seed: int, workdir: Path) -> None:
        (workdir / "out").mkdir()

    def verify_setup(self, seed: int, workdir: Path) -> None:
        pass

    def argv(self, seed: int, index: int, workdir: Path) -> list[str]:
        return ["experiment", *self.args, "--seed", str(sub_seed(seed, "op", index)), "--outdir", str(workdir / "out")]

    def ref_index(self, index: int) -> int:
        return index

    def check(self, seed: int, index: int, workdir: Path, stdout: str) -> tuple[list[int], str]:
        outdir = workdir / "out"
        paths = sorted(outdir.iterdir(), key=lambda p: p.suffix)
        try:
            checks.expect([p.suffix for p in paths] == [".csv", ".json"], f"op wrote {[p.name for p in paths]}")
            csv_text, json_text = (p.read_text() for p in paths)
        finally:
            for path in paths:
                path.unlink()
        checks.expect(stdout == json_text, "stdout differs from the written file")
        sizes = self.verify(csv_text, json_text, sub_seed(seed, "op", index))
        return sizes, hashlib.sha256(csv_text.encode()).hexdigest()[:16]


class SolveDense:
    """`tempclique solve --mode exact` ops over instance files written in set-up.

    Instances alternate between the two configurations and ops cycle through
    them; the benchmark regenerates each instance itself to check both the
    written file and every witness.
    """

    CONFIGS = [(120, 0.7), (200, 0.5)]
    INSTANCES = 16
    trials_per_op = 1
    size_note = "n=120 delta=0.7 and n=200 delta=0.5 alternating, 1 solve per op"
    interpreted = True

    def __init__(self):
        self._labels: dict[tuple[int, int], np.ndarray] = {}

    def _instance(self, seed: int, j: int) -> tuple[int, float, int]:
        n, delta = self.CONFIGS[j % len(self.CONFIGS)]
        return n, delta, sub_seed(seed, "instance", j)

    def setup(self, cli, seed: int, workdir: Path) -> None:
        for j in range(self.INSTANCES):
            n, _, s = self._instance(seed, j)
            argv = ["generate", "--n", str(n), "--seed", str(s), "--out", str(workdir / f"g{j}.json")]
            _, status, _ = run_op(cli, argv)
            if status != 0:
                raise CheckFailed(f"generate {argv}: exit status {status}")

    def verify_setup(self, seed: int, workdir: Path) -> None:
        for j in range(self.INSTANCES):
            n, _, s = self._instance(seed, j)
            checks.check_instance_file((workdir / f"g{j}.json").read_text(), n, checks.complete_labels(n, s))

    def argv(self, seed: int, index: int, workdir: Path) -> list[str]:
        j = self.ref_index(index)
        _, delta, _ = self._instance(seed, j)
        return ["solve", "--in", str(workdir / f"g{j}.json"), "--delta", str(delta), "--mode", "exact",
                "--seed", str(sub_seed(seed, "op", index))]

    def ref_index(self, index: int) -> int:
        return index % self.INSTANCES

    def check(self, seed: int, index: int, workdir: Path, stdout: str) -> tuple[list[int], int]:
        n, delta, s = self._instance(seed, self.ref_index(index))
        if (n, s) not in self._labels:
            self._labels[(n, s)] = checks.label_matrix(n, checks.complete_labels(n, s))
        size = checks.check_solve_output(stdout, self._labels[(n, s)], delta)
        return [size], size


def _threshold(ns: list[int], delta: float, mode: str, trials: int) -> Experiment:
    args = ["--name", "threshold", "--ns", ",".join(map(str, ns)), "--delta", str(delta), "--mode", mode,
            "--threads", "2", "--trials", str(trials)]
    note = f"n={','.join(map(str, ns))} delta={delta}, {len(ns) * trials} solves per op"
    # Exact solves run the bitset B&B in the interpreter; heuristic ones spend
    # their time in numpy window matrices on both pool threads.
    return Experiment(args, len(ns) * trials,
                      lambda c, j, s: checks.check_threshold(c, j, s, ns, delta, trials, mode), note,
                      interpreted=mode == "exact")


WORKLOADS = {
    "threshold-exact": _threshold([100, 200, 300], 0.3, "exact", 1),
    "solve-dense": SolveDense(),
    "threshold-heuristic": _threshold([1000], 0.5, "heuristic", 2),
}


def load_cli():
    """Import tempclique.cli from this checkout's src/, or exit with an error."""
    if not (SRC / "tempclique" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no tempclique source under {SRC}")
    sys.path.insert(0, str(SRC))
    import tempclique.cli

    if Path(tempclique.cli.__file__).resolve().parent != (SRC / "tempclique").resolve():
        raise SystemExit(f"perfbench: imported {tempclique.cli.__file__}, not the checkout's source")
    return tempclique.cli


def run_op(cli, argv: list[str], tracer: Tracer | None = None) -> tuple[float, object, str]:
    """Run one CLI call in-process: (wall seconds, exit status or exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a benchmark crash
        status = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, status, out.getvalue()


class Client:
    """The closed loop's single client: runs and checks ops, counting attempts
    and failures."""

    def __init__(self, wl, seed: int, refs: list | None):
        self.wl, self.seed, self.refs = wl, seed, refs
        self.attempted = self.failed = 0

    def execute(self, cli, index: int, workdir: Path, tracer: Tracer | None = None) -> tuple[float, list[int]]:
        """Run and check op `index`; return its wall time and clique sizes."""
        wall, status, stdout = run_op(cli, self.wl.argv(self.seed, index, workdir), tracer)
        self.attempted += 1
        try:
            if status != 0:
                raise CheckFailed(f"exit status {status}")
            sizes, fingerprint = self.wl.check(self.seed, index, workdir, stdout)
            ref_index = self.wl.ref_index(index)
            if self.refs is not None and ref_index < len(self.refs) and self.refs[ref_index] != fingerprint:
                raise CheckFailed(f"output {fingerprint} differs from the reference {self.refs[ref_index]}")
        except Exception as exc:  # any defect in an op's output counts as a failed op
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return wall, []
        return wall, sizes


def import_probe() -> tuple[float, int]:
    """Seconds to import tempclique.cli in a fresh interpreter, and the number
    of modules that import loads."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, modules, path = proc.stdout.split()
    if Path(path).resolve().parent != (SRC / "tempclique").resolve():
        raise SystemExit(f"perfbench: fresh interpreter imported {path}")
    return float(seconds), int(modules)


def timed_loop(seconds: float, step) -> None:
    """Call step(i) for i = 0, 1, ... while the op time it returns, summed, stays
    within `seconds`; the next step is predicted from the median step so far."""
    took: list[float] = []
    while not took or sum(took) + statistics.median(took) <= seconds:
        took.append(step(len(took)))


def untraced_run(cli, wl, client: Client, seconds: float, run_dir: Path) -> tuple[dict, dict]:
    setups: list[float] = []  # wall seconds
    setup_loops: list[float] = []  # speed_loop_s() around each set-up

    def set_up() -> Path:
        workdir = run_dir / f"setup{len(setups)}"
        workdir.mkdir()

        def work() -> float:
            start = time.perf_counter()
            wl.setup(cli, client.seed, workdir)
            written = time.perf_counter() - start
            return written + client.execute(cli, 0, workdir)[0]

        took, loop = bracketed(work)
        setups.append(took)
        setup_loops.append(loop)
        return workdir

    def catch_up(done: float) -> None:
        # Set-ups are spread evenly over the op time of the loop, so they
        # sample the same stretch of a host whose speed drifts as the ops do,
        # not just its first seconds.
        while len(setups) < SETUP_REPEATS and done >= seconds * len(setups) / SETUP_REPEATS:
            set_up()

    workdir = set_up()
    wl.verify_setup(client.seed, workdir)
    walls: list[float] = []
    loops: list[float] = []
    sizes: list[int] = []

    def step(i):
        catch_up(sum(walls))
        (wall, got), loop = bracketed(lambda: client.execute(cli, i, workdir))
        walls.append(wall)
        loops.append(loop)
        sizes.extend(got)
        return wall

    timed_loop(seconds, step)
    catch_up(math.inf)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # On an interpreter-bound workload each op and set-up is scaled by the
    # host speed read around it; numpy-bound time does not follow the loop,
    # so elsewhere the wall times stand.
    if wl.interpreted:
        op_s = [wall * REFERENCE_LOOP_S / loop for wall, loop in zip(walls, loops)]
        setup_s = [wall * REFERENCE_LOOP_S / loop for wall, loop in zip(setups, setup_loops)]
    else:
        op_s, setup_s = walls, setups
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "trials_per_s": (len(op_s) * wl.trials_per_op / sum(op_s), "1/s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
        "mean_clique_size": (statistics.fmean(sizes) if sizes else 0.0, "vertices"),
    }
    detail = {"ops": len(walls), "op_walls_s": walls, "op_loops_s": loops, "setup_walls_s": setups,
              "setup_loops_s": setup_loops, "op_wall_p50_s": statistics.median(walls),
              "setup_wall_p50_s": statistics.median(setups),
              "speed_loop_p50_s": statistics.median(loops), "trials_per_op": wl.trials_per_op,
              "input": wl.size_note}
    # The highest percentile with at least ten samples beyond it, when there is one.
    tail = math.floor(100 * (1 - 10 / len(op_s)))
    if tail > 50:
        detail[f"op_p{tail}_s"] = statistics.quantiles(op_s, n=100)[tail - 1]
    return metrics, detail


PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_modules": "count", "_edges": "edges", "_bytes": "B", "errors": "count"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count" if name == "analytics.calls" else "ratio"


def traced_run(cli, wl, client: Client, seconds: float, run_dir: Path) -> tuple[dict, dict]:
    workdir = run_dir / "setup"
    workdir.mkdir()
    wl.setup(cli, client.seed, workdir)
    wl.verify_setup(client.seed, workdir)
    client.execute(cli, 0, workdir)  # warm-up
    untraced, traced, per_op, spans = [], [], [], []
    solve_walls: dict[str, list[float]] = {}

    def step(i):
        # Each input runs once untraced and once traced, alternating which goes first.
        took = 0.0
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = Tracer() if with_trace else None
            wall, _ = client.execute(cli, i, workdir, tracer)
            took += wall
            if tracer:
                traced.append(wall)
                per_op.append(tracer.layer_metrics(wall))
                spans.extend(tracer.records(i))
                for key, values in tracer.solve_walls().items():
                    solve_walls.setdefault(key, []).extend(values)
            else:
                untraced.append(wall)
        return took

    timed_loop(seconds, step)
    imports = [import_probe() for _ in range(IMPORT_REPEATS)]
    values = median_metrics(per_op)
    values["cli.import_s"] = statistics.median(took for took, _ in imports)
    values["cli.import_modules"] = statistics.median(modules for _, modules in imports)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    detail = {
        "ops": len(traced),
        "import_s_each": [took for took, _ in imports],
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "solve_wall_median_s": {k: [statistics.median(v), len(v)] for k, v in solve_walls.items()},
        "spans": spans,
    }
    return metrics, detail


def provenance() -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "tempclique").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "argv": sys.argv,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    cli = load_cli()
    wl = WORKLOADS[args.workload]
    refs = json.loads(REFS.read_text()).get(args.workload, {}).get(str(args.seed))
    client = Client(wl, args.seed, refs)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, detail = run(cli, wl, client, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        "references_checked": refs is not None,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **detail,
    }
    kind = "trace" if args.trace else "result"
    out_path = WORK / f"{kind}-{args.workload}-seed{args.seed}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {detail['ops']} timed ops; "
          f"input {wl.size_note}")
    print(f"error_rate {client.failed / client.attempted:.4g} ({client.failed} of {client.attempted} ops failed); "
          "references " + ("checked" if refs is not None else "not stored for this seed, seed-independent checks only"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for name, value in detail.items():
        if name.startswith("op_p") or name.endswith("_p50_s"):
            print(f"  {name:28s} {value:.6g} s")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

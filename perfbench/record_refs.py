"""Record the reference outputs in refs.json.

    python3 perfbench/record_refs.py --seeds 0

For each workload and seed, runs the first ops once, checks them with the
seed-independent checks, and stores each op's fingerprint: the first 16 hex
digits of the SHA-256 of an experiment op's CSV, or the clique size found on
a solve-dense instance.  Run it only at a commit whose outputs are trusted;
every later benchmark run on a recorded seed must reproduce these
fingerprints exactly.  Ops past the recorded count get the seed-independent
checks only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

# Enough ops to cover a 30-second run on a machine about 1.2 times as fast as
# the 2-core one the references were recorded on; solve-dense has one
# fingerprint per instance.
OPS = {
    "threshold-exact": 48,
    "solve-dense": run.SolveDense.INSTANCES,
    "threshold-heuristic": 48,
}


def record(cli, name: str, seed: int) -> list:
    wl = run.WORKLOADS[name]
    workdir = run.WORK / f"refs-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl.setup(cli, seed, workdir)
        wl.verify_setup(seed, workdir)
        fingerprints = []
        for i in range(OPS[name]):
            _, status, stdout = run.run_op(cli, wl.argv(seed, i, workdir))
            if status != 0:
                raise SystemExit(f"{name} seed {seed} op {i}: exit status {status}")
            fingerprints.append(wl.check(seed, i, workdir, stdout)[1])
        return fingerprints
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    cli = run.load_cli()
    refs = json.loads(run.REFS.read_text())
    for name in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            refs.setdefault(name, {})[str(seed)] = record(cli, name, seed)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    run.REFS.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

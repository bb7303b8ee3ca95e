"""Output checks that rest on the instance data and the specification only.

Nothing here imports tempclique: trial seeds, instance labels and witnesses
are recomputed from their definitions, so a defect in the code under test
cannot also hide in its check.  `tempclique.graphs.delta_clique_check`
is deliberately not reused; it accepts witnesses with NaN labels.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class CheckFailed(Exception):
    """An op's output disagrees with what the specification demands."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def mix64(x: int) -> int:
    """splitmix64 finalizer."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Sub-stream seed of trial `index` under `master` (splitmix64 of a Weyl step)."""
    return mix64((master + (index + 1) * GOLDEN) & MASK64)


def complete_labels(n: int, seed: int) -> np.ndarray:
    """Labels of the complete instance (n, seed): one PCG64 stream of uniforms
    in canonical (u < v, row-major) edge order."""
    return np.random.default_rng(seed).random(n * (n - 1) // 2)


def label_matrix(n: int, labels: np.ndarray) -> np.ndarray:
    """Symmetric n x n label matrix of a complete instance; NaN on the diagonal."""
    mat = np.full((n, n), np.nan)
    iu, iv = np.triu_indices(n, k=1)
    mat[iu, iv] = labels
    mat[iv, iu] = labels
    return mat


def check_instance_file(text: str, n: int, labels: np.ndarray) -> None:
    """The written instance file holds exactly the complete instance's labels."""
    doc = json.loads(text)
    expect(doc.get("n") == n, f"instance file has n={doc.get('n')}, expected {n}")
    edges = np.asarray(doc.get("edges"), dtype=np.float64)
    iu, iv = np.triu_indices(n, k=1)
    expect(edges.shape == (iu.size, 3), f"instance file has {edges.shape[0]} edges, expected {iu.size}")
    expect(
        np.array_equal(edges[:, 0], iu) and np.array_equal(edges[:, 1], iv) and np.array_equal(edges[:, 2], labels),
        "instance file edges differ from the instance definition",
    )


def check_witness(labels: np.ndarray, vertices: list, delta: float) -> tuple[float, float]:
    """Check that `vertices` is a delta-temporal clique; return its (min, max) label.

    `labels` is the instance's n x n matrix with NaN where no edge exists, so a
    missing edge and a non-finite label are both rejected.
    """
    n = labels.shape[0]
    expect(all(isinstance(v, int) and not isinstance(v, bool) for v in vertices), "witness vertices must be integers")
    expect(vertices == sorted(set(vertices)), "witness vertices must be sorted and distinct")
    expect(all(0 <= v < n for v in vertices), "witness vertex out of range")
    if len(vertices) < 2:
        return 0.0, 0.0
    idx = np.asarray(vertices)
    inner = labels[np.ix_(idx, idx)][np.triu_indices(idx.size, k=1)]
    expect(bool(np.all(np.isfinite(inner))), "witness has a missing edge or a non-finite label")
    lo, hi = float(inner.min()), float(inner.max())
    expect(hi - lo <= delta, f"witness spans {hi - lo} > delta {delta}")
    return lo, hi


def check_solve_output(stdout: str, labels: np.ndarray, delta: float) -> int:
    """Check one `solve --mode exact` JSON document; return the clique size."""
    doc = json.loads(stdout)
    verts = doc["vertices"]
    expect(doc["size"] == len(verts), "size differs from the witness length")
    lo, hi = check_witness(labels, verts, delta)
    expect(doc["interval_min"] == lo and doc["interval_max"] == hi, "reported interval differs from the witness labels")
    expect(doc["optimal"] is True and doc["mode"] == "exact", "exact solve not reported optimal")
    return len(verts)


def _rows(text: str, header: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    expect(reader.fieldnames == header, f"CSV header {reader.fieldnames}, expected {header}")
    return list(reader)


def check_aggregate(text: str, name: str, params: dict, values: list[float]) -> dict:
    """The JSON aggregate names the run and matches the per-trial values."""
    doc = json.loads(text)
    expect(doc["name"] == name, f"aggregate names {doc['name']!r}, expected {name!r}")
    for key, val in params.items():
        expect(doc["params"].get(key) == val, f"aggregate param {key}={doc['params'].get(key)!r}, expected {val!r}")
    expect(doc["count"] == len(values), "aggregate count differs from the CSV rows")
    expect(_close(doc["mean"], math.fsum(values) / len(values)), "aggregate mean differs from the CSV values")
    return doc


THRESHOLD_HEADER = ["n", "trial", "seed", "delta", "value", "omega", "k0", "upper_ok", "lower_ok", "optimal"]


def check_threshold(csv_text: str, json_text: str, seed: int, ns: list[int], delta: float, trials: int, mode: str) -> list[int]:
    """Check a fixed-delta threshold sweep's records and aggregate; return the omegas."""
    rows = _rows(csv_text, THRESHOLD_HEADER)
    expected = [(n, t) for n in ns for t in range(trials)]
    expect(len(rows) == len(expected), f"{len(rows)} records, expected {len(expected)}")
    omegas = []
    for row, (n, t) in zip(rows, expected):
        expect(int(row["n"]) == n and int(row["trial"]) == t, f"record order: got n={row['n']} trial={row['trial']}")
        expect(int(row["seed"]) == derive_seed(derive_seed(seed, n), t), f"trial seed of n={n} t={t}")
        expect(float(row["delta"]) == delta, f"delta of n={n} t={t}")
        k0 = float(row["k0"])
        expect(_close(k0, 2.0 * math.log(n) / -math.log(delta)), f"k0 of n={n}")
        omega = int(row["omega"])
        expect(2 <= omega <= n, f"omega {omega} outside [2, {n}]")
        expect(_close(float(row["value"]), omega / k0), f"value of n={n} t={t}")
        expect(int(row["upper_ok"]) == int(omega <= math.ceil(1.25 * k0)), f"upper_ok of n={n} t={t}")
        expect(int(row["lower_ok"]) == int(omega >= math.floor(0.5 * k0)), f"lower_ok of n={n} t={t}")
        expect(int(row["optimal"]) == int(mode == "exact"), f"optimal flag of n={n} t={t}")
        omegas.append(omega)
    params = {"ns": ns, "delta": delta, "trials": trials, "seed": seed, "mode": mode}
    check_aggregate(json_text, "threshold_sweep", params, [float(r["value"]) for r in rows])
    return omegas

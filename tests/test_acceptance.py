"""End-to-end acceptance checks for the package.

One test per criterion; each prints a single
``acceptance criterion N (...): PASS|FAIL`` line (run pytest with -s or -rA
to see the lines for passing tests) and then asserts.  Every run is driven
from MASTER_SEED so the whole suite is reproducible bit for bit; criterion 8
re-executes the seeded experiment runs in a fresh interpreter with another
hash seed and demands byte-identical CSV trial records.

Covered:
  1. closed-form window probability vs Monte Carlo (20 parameter combos,
     1e5 trials each, 3 binomial standard errors)
  2. expected clique count vs Monte Carlo (3 configs, 1e4 instances,
     3 standard errors; the (4,3,0.5) target is exactly 2.0)
  3. exact solver vs brute force on 500 seeded instances x 4 deltas
  4. omega(n) stays inside [floor(0.5 k0), ceil(1.25 k0)] with
     nondecreasing medians at delta = 0.3
  5. optimum interval width / delta on criterion 4's n = 200 trials: all
     ratios <= 1, median >= 0.9 (band frozen after a 3-seed calibration;
     details in README)
  6. planted-instance reduction recovers base-graph cliques inside the
     low window, every one at least as large as the base graph's clique
     number, and beats a greedy static clique in >= 18/20 trials
  7. analytic invariants: density quadrature, compositional identity,
     big-rational oracle to 10 significant digits, monotonicity grids
  8. byte-identical CSV records for the criterion 1-6 runs, and JSON
     aggregate for the threshold run, when each is repeated in a fresh
     interpreter with a different PYTHONHASHSEED, so a record depending on
     process state or hash order fails the check

Run as a script, this file prints the digests of the criterion 1-6 runs as
JSON; criterion 8 does that in a subprocess.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import tempclique
from tempclique.analytics import (
    expected_clique_count,
    k0_threshold,
    min_density,
    minmax_joint_density,
    window_probability,
)
from tempclique.experiments import (
    ExperimentReport,
    estimate_clique_count,
    estimate_window_probability,
    reduction_experiment,
    run_indexed,
    threshold_sweep,
)
from tempclique.graphs import generate_random_complete
from tempclique.seeds import derive_seed
from tempclique.solver import (
    max_delta_clique_bruteforce,
    max_delta_clique_exact,
)

MASTER_SEED = 1729

WINDOW_GRID = list(product((1, 2, 3, 6, 10), (0.1, 0.3, 0.5, 0.9)))
COUNT_CONFIGS = [(4, 3, 0.5), (10, 4, 0.3), (12, 3, 0.7)]
ORACLE_INSTANCES = 500
ORACLE_DELTAS = (0.1, 0.3, 0.5, 0.9)
SWEEP_NS = [50, 100, 200, 300]
WIDTH_MEDIAN_BAND = 0.9  # frozen after calibration at seeds 101/202/303

# the criterion tests populate these runs and criterion 8 reuses them, so
# nothing is computed twice in one process.
_CACHE: dict = {}


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ runners
# The estimators' reports hold 10^4-10^5 records each, so their runners cache
# only {key: sha256-of-csv} and the means; the others cache the report.


def _window_prob_digests() -> dict:
    key = "window_prob"
    if key not in _CACHE:
        out = {}
        for idx, (h, d) in enumerate(WINDOW_GRID):
            rpt = estimate_window_probability(
                h, d, trials=10**5, seed=derive_seed(MASTER_SEED, idx)
            )
            out[(h, d)] = _digest(rpt.csv_text())
            _CACHE[("window_prob_mean", (h, d))] = rpt.mean
        _CACHE[key] = out
    return _CACHE[key]


def _clique_count_digests() -> dict:
    key = "clique_count"
    if key not in _CACHE:
        out = {}
        for idx, (n, k, d) in enumerate(COUNT_CONFIGS):
            rpt = estimate_clique_count(
                n, k, d, trials=10**4, seed=derive_seed(MASTER_SEED, 100 + idx)
            )
            out[(n, k, d)] = _digest(rpt.csv_text())
            _CACHE[("clique_count_stats", (n, k, d))] = (rpt.mean, rpt.stderr)
        _CACHE[key] = out
    return _CACHE[key]


def _oracle_report() -> ExperimentReport:
    key = "oracle"
    if key not in _CACHE:

        def one_instance(i: int) -> dict:
            n = 6 + i % 7
            s = derive_seed(derive_seed(MASTER_SEED, 3), i)
            tg = generate_random_complete(n, s)
            mismatches = 0
            for d in ORACLE_DELTAS:
                exact = max_delta_clique_exact(tg, d)
                brute = max_delta_clique_bruteforce(tg, d)
                if exact.clique.size != brute.size:
                    mismatches += 1
            return {"trial": i, "seed": s, "n": n, "value": mismatches}

        records = run_indexed(ORACLE_INSTANCES, one_instance)
        params = {
            "instances": ORACLE_INSTANCES,
            "deltas": list(ORACLE_DELTAS),
            "seed": MASTER_SEED,
        }
        _CACHE[key] = ExperimentReport.from_trials("oracle_equivalence", params, records)
    return _CACHE[key]


def _threshold_report() -> ExperimentReport:
    key = "threshold"
    if key not in _CACHE:
        _CACHE[key] = threshold_sweep(
            SWEEP_NS, 0.3, trials=20, mode="exact",
            seed=MASTER_SEED,
        )
    return _CACHE[key]


def _reduction_report() -> ExperimentReport:
    key = "reduction"
    if key not in _CACHE:
        _CACHE[key] = reduction_experiment(
            100, 0.5, trials=20, mode="exact",
            seed=MASTER_SEED,
        )
    return _CACHE[key]


# ---------------------------------------------------------------- criteria


def test_criterion_1_window_probability_monte_carlo():
    _window_prob_digests()
    worst = 0.0
    failures = []
    for h, d in WINDOW_GRID:
        mean = _CACHE[("window_prob_mean", (h, d))]
        p = window_probability(h, d)
        se = math.sqrt(p * (1.0 - p) / 10**5)
        if se == 0.0:
            if mean != p:
                failures.append((h, d, mean, p))
            continue
        z = abs(mean - p) / se
        worst = max(worst, z)
        if z > 3.0:
            failures.append((h, d, mean, p))
    ok = not failures
    _verdict(1, "window probability vs Monte Carlo", ok,
             f"20 combos x 1e5 trials, worst |z| = {worst:.2f}")
    assert ok, f"outside 3 binomial standard errors: {failures}"


def test_criterion_2_expected_count_monte_carlo():
    assert expected_clique_count(4, 3, 0.5) == 2.0
    _clique_count_digests()
    failures = []
    details = []
    for n, k, d in COUNT_CONFIGS:
        mean, stderr = _CACHE[("clique_count_stats", (n, k, d))]
        target = expected_clique_count(n, k, d)
        z = abs(mean - target) / stderr
        details.append(f"({n},{k},{d}): |z| = {z:.2f}")
        if z > 3.0:
            failures.append((n, k, d, mean, target))
    ok = not failures
    _verdict(2, "expected clique count vs Monte Carlo", ok, "; ".join(details))
    assert ok, f"outside 3 standard errors: {failures}"


def test_criterion_3_exact_solver_matches_bruteforce():
    rpt = _oracle_report()
    total = sum(t["value"] for t in rpt.trials)
    ok = total == 0 and rpt.count == ORACLE_INSTANCES
    _verdict(3, "exact vs brute force", ok,
             f"{ORACLE_INSTANCES} instances x {len(ORACLE_DELTAS)} deltas, "
             f"{total} mismatches")
    assert ok, f"{total} size mismatches"


def test_criterion_4_threshold_band():
    assert k0_threshold(300, 0.3) == pytest.approx(9.474935736359191, rel=1e-12)
    rpt = _threshold_report()
    bad_upper = [t for t in rpt.trials if not t["upper_ok"]]
    bad_lower = [t for t in rpt.trials if not t["lower_ok"]]
    not_optimal = [t for t in rpt.trials if not t["optimal"]]
    medians = [rpt.extras["median_omega"][str(n)] for n in SWEEP_NS]
    monotone = all(a <= b for a, b in zip(medians, medians[1:]))
    ok = not bad_upper and not bad_lower and not not_optimal and monotone
    _verdict(4, "threshold band", ok,
             f"medians {medians} over n = {SWEEP_NS}, "
             f"k0(300) = {rpt.extras['k0']['300']:.4f}")
    assert not bad_upper, f"omega above ceil(1.25 k0): {bad_upper}"
    assert not bad_lower, f"omega below floor(0.5 k0): {bad_lower}"
    assert not not_optimal, f"non-optimal exact trials: {not_optimal}"
    assert monotone, f"median omega not nondecreasing: {medians}"


def test_criterion_5_optimum_width():
    rpt = _threshold_report()
    ratios = rpt.extras["width_ratio"]["200"]
    median = rpt.extras["median_width_ratio"]["200"]
    hard_ok = all(r <= 1.0 + 1e-12 for r in ratios)
    band_ok = median >= WIDTH_MEDIAN_BAND
    ok = hard_ok and band_ok
    _verdict(5, "interval width", ok,
             f"n = 200: median ratio {median:.4f} (band >= {WIDTH_MEDIAN_BAND}), "
             f"max {max(ratios):.4f}")
    assert hard_ok, f"width ratio above 1: {max(ratios)}"
    assert band_ok, f"median width ratio {median} below {WIDTH_MEDIAN_BAND}"


def test_criterion_6_reduction_recovers_planted_cliques():
    rpt = _reduction_report()
    not_base = [t for t in rpt.trials if not t["base_clique"]]
    not_window = [t for t in rpt.trials if not t["in_planted_window"]]
    below_omega = [t for t in rpt.trials if t["value"] < t["base_omega"]]
    beats = sum(t["beats_greedy"] for t in rpt.trials)
    ok = not not_base and not not_window and not below_omega and beats >= 18
    _verdict(6, "planted reduction", ok,
             f"20/20 base cliques in window of size >= base omega, "
             f"{beats}/20 beat greedy")
    assert not not_base, f"witness not a base-graph clique: {not_base}"
    assert not not_window, f"interval outside planted window: {not_window}"
    assert not below_omega, f"witness below the base clique number: {below_omega}"
    assert beats >= 18, f"only {beats}/20 beat the greedy clique"


def _wp_fraction(h: int, d: Fraction) -> Fraction:
    if h <= 1:
        return Fraction(1)
    return h * d ** (h - 1) * (1 - d) + d**h


def test_criterion_7_analytic_invariants():
    failures = []

    for m in range(2, 11):
        val, _ = integrate.dblquad(
            lambda y, x, m=m: minmax_joint_density(m, x, y), 0.0, 1.0, lambda x: x, 1.0
        )
        if abs(val - 1.0) > 1e-8:
            failures.append(("joint quadrature", m, val))
    for m in range(1, 21):
        val, _ = integrate.quad(lambda x, m=m: min_density(m, x), 0.0, 1.0)
        if abs(val - 1.0) > 1e-8:
            failures.append(("min quadrature", m, val))

    for n in (5, 20, 80):
        for k in range(2, min(8, n) + 1):
            for d in (0.1, 0.5, 0.9):
                lhs = expected_clique_count(n, k, d)
                rhs = comb(n, k) * window_probability(comb(k, 2), d)
                if not math.isclose(lhs, rhs, rel_tol=1e-13):
                    failures.append(("compositional identity", (n, k, d), lhs, rhs))

    rng = np.random.default_rng(derive_seed(MASTER_SEED, 7))
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(2, min(10, n) + 1))
        d = Fraction(int(rng.integers(1, 100)), 100)
        exact = comb(n, k) * _wp_fraction(comb(k, 2), d)
        got = expected_clique_count(n, k, float(d))
        rel = abs(got - float(exact)) / float(exact)
        worst_rel = max(worst_rel, rel)
        if rel > 5e-10:
            failures.append(("rational oracle", (n, k, str(d)), got, float(exact)))

    k0s = [k0_threshold(n, 0.5) for n in (10, 50, 100, 500, 1000)]
    if not all(a < b for a, b in zip(k0s, k0s[1:])):
        failures.append(("k0 not increasing in n", k0s))
    k0d = [k0_threshold(100, d) for d in (0.1, 0.3, 0.5, 0.7, 0.9)]
    if not all(a < b for a, b in zip(k0d, k0d[1:])):
        failures.append(("k0 not increasing in delta", k0d))
    wph = [window_probability(h, 0.4) for h in range(1, 13)]
    if not all(a > b for a, b in zip(wph, wph[1:])):
        failures.append(("window probability not decreasing in h", wph))
    wpd = [window_probability(4, d) for d in np.linspace(0.05, 0.95, 10)]
    if not all(a < b for a, b in zip(wpd, wpd[1:])):
        failures.append(("window probability not increasing in delta", wpd))

    ok = not failures
    _verdict(7, "analytic invariants", ok,
             f"quadrature to 1e-8, oracle worst rel err {worst_rel:.2e}")
    assert ok, failures


def _all_digests() -> dict:
    """{run: sha256 of its CSV records} for every criterion 1-6 run, plus
    the sha256 of the threshold run's JSON aggregate, whose extras hold the
    per-trial widths of criterion 5."""
    out = {f"window_prob {key}": dg for key, dg in _window_prob_digests().items()}
    out.update({f"clique_count {key}": dg for key, dg in _clique_count_digests().items()})
    for name, runner in (
        ("oracle", _oracle_report),
        ("threshold", _threshold_report),
        ("reduction", _reduction_report),
    ):
        out[name] = _digest(runner().csv_text())
    out["threshold json"] = _digest(_threshold_report().json_text())
    return out


def _fresh_interpreter_digests() -> dict:
    """Run this file as a script in a new interpreter with another hash seed."""
    env = dict(os.environ)
    parent_seed = env.get("PYTHONHASHSEED", "")
    env["PYTHONHASHSEED"] = str((int(parent_seed) + 1) % 2**32) if parent_seed.isdigit() else "1"
    src = str(Path(tempclique.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_criterion_8_repeat_determinism():
    in_process = _all_digests()
    fresh = _fresh_interpreter_digests()
    assert fresh["hash"] != hash("tempclique"), "the fresh interpreter kept the hash seed"
    mismatches = sorted(
        key for key in in_process.keys() | fresh["digests"].keys()
        if in_process.get(key) != fresh["digests"].get(key)
    )
    ok = not mismatches
    _verdict(8, "repeat determinism", ok,
             f"digests of {len(in_process)} outputs compared with a fresh "
             f"interpreter under another PYTHONHASHSEED, {len(mismatches)} differ")
    assert ok, f"records differ in a fresh interpreter: {mismatches}"


if __name__ == "__main__":
    print(json.dumps({"hash": hash("tempclique"), "digests": _all_digests()}))

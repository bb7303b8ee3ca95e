"""Monte Carlo harness: seeding, trial order, reports, experiments."""

import hashlib
import json
import math
from math import comb

import numpy as np
import pytest
from scipy import stats

from tempclique import analytics, experiments
from tempclique.analytics import window_probability
from tempclique.cli import main
from tempclique.experiments import (
    EXACT_SWEEP_MAX_N,
    ExperimentReport,
    _ks_uniform,
    build_planted_instance,
    conjecture2_probe,
    estimate_clique_count,
    estimate_window_probability,
    reduction_experiment,
    run_indexed,
    threshold_sweep,
)
from tempclique.graphs import TemporalGraph, generate_er, generate_random_complete, is_delta_clique
from tempclique.seeds import derive_seed
from tempclique.solver import InfeasibleConfigError


# ------------------------------------------------------------------ harness


def test_run_indexed_orders_results():
    assert run_indexed(5, lambda i: i * i) == [0, 1, 4, 9, 16]


def test_report_aggregates_are_recomputable():
    trials = [{"trial": i, "seed": i, "value": float(i)} for i in range(10)]
    rep = ExperimentReport.from_trials("demo", {"seed": 0}, trials)
    values = [t["value"] for t in rep.trials]
    assert rep.count == 10
    assert rep.mean == pytest.approx(np.mean(values), rel=1e-12)
    assert rep.variance == pytest.approx(np.var(values, ddof=1), rel=1e-12)
    assert rep.stderr == pytest.approx(math.sqrt(rep.variance / 10), rel=1e-12)


def test_report_single_trial_has_zero_variance():
    rep = ExperimentReport.from_trials("demo", {"seed": 0}, [{"value": 3.5}])
    assert rep.variance == 0.0 and rep.stderr == 0.0


def test_report_csv_shape():
    trials = [{"trial": i, "seed": 7, "value": 0.5} for i in range(3)]
    rep = ExperimentReport.from_trials("demo", {"seed": 7}, trials)
    lines = rep.csv_text().splitlines()
    assert lines[0] == "trial,seed,value"
    assert len(lines) == 4
    assert lines[1] == "0,7,0.5"


def test_report_write_names_files_by_params_hash(tmp_path):
    trials = [{"trial": i, "seed": 7, "value": 1.0} for i in range(3)]
    rep = ExperimentReport.from_trials("demo", {"seed": 7, "n": 4}, trials)
    csv_path, json_path = rep.write(tmp_path)
    assert csv_path.name.startswith("demo_") and csv_path.name.endswith("_7.csv")
    assert json_path.name.endswith("_7.json")
    doc = json.loads(json_path.read_text())
    assert doc["count"] == 3 and doc["mean"] == 1.0
    # different params -> different stem
    rep2 = ExperimentReport.from_trials("demo", {"seed": 7, "n": 5}, trials)
    assert rep2.file_stem() != rep.file_stem()


# --------------------------------------------------------- window probability


def test_window_prob_trivial_h_is_exact():
    rep = estimate_window_probability(1, 0.3, 500, seed=4)
    assert rep.mean == 1.0 and rep.variance == 0.0


def test_window_prob_estimate_tracks_closed_form():
    rep = estimate_window_probability(2, 0.5, 20000, seed=11)
    p = window_probability(2, 0.5)
    se = math.sqrt(p * (1 - p) / 20000)
    assert abs(rep.mean - p) <= 3 * se
    assert rep.extras["closed_form"] == p


def test_window_prob_trial_records_are_seeded():
    rep = estimate_window_probability(3, 0.4, 200, seed=9)
    assert [t["trial"] for t in rep.trials] == list(range(200))
    assert rep.trials[5]["seed"] == derive_seed(9, 5)
    assert set(t["value"] for t in rep.trials) <= {0, 1}


def test_window_prob_validates():
    with pytest.raises(ValueError):
        estimate_window_probability(2, 0.5, 50, seed=1)
    with pytest.raises(ValueError):
        estimate_window_probability(-1, 0.5, 200, seed=1)


# -------------------------------------------------------------- clique count


def test_clique_count_k2_is_all_pairs():
    rep = estimate_clique_count(6, 2, 0.7, 5, seed=3)
    assert all(t["value"] == comb(6, 2) for t in rep.trials)
    assert rep.mean == float(comb(6, 2))


def test_clique_count_matches_predicate_loop():
    """The vectorized subset count must agree with naive is_delta_clique checks."""
    from itertools import combinations

    n, k, d = 7, 3, 0.4
    rep = estimate_clique_count(n, k, d, 3, seed=8)
    for t in rep.trials:
        tg = generate_random_complete(n, t["seed"])
        naive = sum(
            1 for q in combinations(range(n), k) if is_delta_clique(tg, q, d)
        )
        assert t["value"] == naive


def test_clique_count_tetrahedron_band():
    rep = estimate_clique_count(4, 3, 0.5, 2000, seed=21)
    band = 3 * rep.stderr
    assert abs(rep.mean - 2.0) <= band


def test_clique_count_guard():
    with pytest.raises(InfeasibleConfigError):
        estimate_clique_count(50, 25, 0.5, 10, seed=0)


def test_clique_count_guard_never_computes_a_huge_binomial(monkeypatch):
    """The subset guard refuses C(10^8, 5 * 10^7) without computing it."""

    def small_comb_only(n, k):
        assert min(k, n - k) <= 64, f"comb({n}, {k}) computed"
        return comb(n, k)

    # both modules: the guard may compute through neither
    monkeypatch.setattr(analytics, "comb", small_comb_only)
    monkeypatch.setattr(experiments, "comb", small_comb_only, raising=False)
    with pytest.raises(InfeasibleConfigError, match="subset guard"):
        estimate_clique_count(10**8, 5 * 10**7, 0.5, 1, seed=1)


# ---------------------------------------------------------------- thresholds


def test_threshold_sweep_small_run_structure():
    rep = threshold_sweep([20, 30], 0.3, 3, "exact", seed=17)
    assert len(rep.trials) == 6
    for t in rep.trials:
        assert t["value"] == pytest.approx(t["omega"] / t["k0"], rel=1e-12)
        assert t["optimal"] == 1
    assert set(rep.extras["median_omega"]) == {"20", "30"}


def test_threshold_sweep_bands_at_fifty():
    """At n=50, delta=0.3 (k0 ~ 6.50): omega never exceeds ceil(1.25 k0) and
    never drops below 2 (any edge is a 2-clique)."""
    rep = threshold_sweep([50], 0.3, 20, "exact", seed=17)
    k0 = rep.extras["k0"]["50"]
    assert k0 == pytest.approx(6.50, abs=0.005)
    for t in rep.trials:
        assert t["omega"] <= math.ceil(1.25 * k0)
        assert t["omega"] >= 2
        assert t["upper_ok"] == 1


def test_threshold_sweep_seeds_do_not_depend_on_ns_list():
    """Trial (n, t) gets the same seed whether or not other n values run."""
    both = threshold_sweep([20, 30], 0.3, 2, "exact", seed=17)
    only30 = threshold_sweep([30], 0.3, 2, "exact", seed=17)
    recs_both = [t for t in both.trials if t["n"] == 30]
    for a, b in zip(recs_both, only30.trials):
        assert a["seed"] == b["seed"] and a["omega"] == b["omega"]


def test_threshold_sweep_guards():
    with pytest.raises(InfeasibleConfigError):
        threshold_sweep([EXACT_SWEEP_MAX_N + 1], 0.3, 2, "exact", seed=1)
    with pytest.raises(InfeasibleConfigError):
        threshold_sweep([10], 0.3, 2, "bruteforce", seed=1)
    with pytest.raises(ValueError):
        threshold_sweep([20], 1.5, 2, "exact", seed=1)
    # heuristic misses the n quard
    rep = threshold_sweep([EXACT_SWEEP_MAX_N + 1], 0.3, 1, "heuristic", seed=1)
    assert len(rep.trials) == 1


# ------------------------------------------------------------- optimum width


def test_threshold_width_ratios_are_at_most_one():
    rep = threshold_sweep([40], 0.3, 5, "exact", seed=12)
    ratios = rep.extras["width_ratio"]["40"]
    assert len(ratios) == 5
    for r in ratios:
        assert 0.0 <= r <= 1.0
    assert rep.extras["median_width_ratio"]["40"] == float(np.median(ratios))


def test_threshold_median_width_ratio_grows_with_n():
    """Median width ratio at n=200 shouldn't fall below the n=50 one by > 0.05."""
    rep = threshold_sweep([50, 200], 0.3, 20, "exact", seed=14)
    medians = rep.extras["median_width_ratio"]
    assert medians["200"] >= medians["50"] - 0.05


# ------------------------------------------------------------------- planted


def test_planted_instance_mode_half_ranges():
    base = generate_er(30, 0.4, 5)
    inst = build_planted_instance(base, 0.5, "half", seed=7)
    tg = inst.temporal
    assert tg.m == 30 * 29 // 2 and tg.n == 30
    base_pairs = set(zip(base.u.tolist(), base.v.tolist()))
    for a, b, t in tg.edge_list():
        if (a, b) in base_pairs:
            assert 0.0 <= t < 0.25
        else:
            assert 0.5 <= t < 1.0
    assert inst.planted_range == (0.0, 0.25)


def test_planted_instance_mode_full_ranges():
    base = generate_er(20, 0.5, 6)
    inst = build_planted_instance(base, 0.4, "full", seed=8)
    base_pairs = set(zip(base.u.tolist(), base.v.tolist()))
    for a, b, t in inst.temporal.edge_list():
        if (a, b) in base_pairs:
            assert 0.0 <= t < 0.4
        else:
            assert 0.4 <= t < 1.0


def test_planted_instance_is_deterministic():
    base = generate_er(15, 0.5, 1)
    a = build_planted_instance(base, 0.3, "half", seed=2)
    b = build_planted_instance(base, 0.3, "half", seed=2)
    assert a.temporal == b.temporal


def test_planted_instance_validation():
    base = generate_er(10, 0.5, 1)
    with pytest.raises(ValueError):
        build_planted_instance(base, 0.5, "quarter", seed=0)
    with pytest.raises(ValueError):
        build_planted_instance(base, 0.0, "half", seed=0)
    with pytest.raises(ValueError):
        build_planted_instance(TemporalGraph.from_edges(1, []), 0.5, "half", seed=0)


def test_planted_clique_is_recovered():
    """A planted K5 inside an otherwise empty base is the delta/2 optimum."""
    base = TemporalGraph.from_edges(8, [(i, j, 0.0) for i in range(5) for j in range(i + 1, 5)])
    inst = build_planted_instance(base, 0.4, "half", seed=3)
    from tempclique.solver import max_delta_clique_exact

    res = max_delta_clique_exact(inst.temporal, 0.2)
    assert res.clique.vertices == (0, 1, 2, 3, 4)


# ----------------------------------------------------------------- reduction


def test_reduction_experiment_small_run():
    rep = reduction_experiment(40, 0.5, 10, "exact", seed=19)
    assert len(rep.trials) == 10
    for t in rep.trials:
        assert t["base_clique"] == 1
        assert t["in_planted_window"] == 1
        assert t["value"] >= 2
        assert t["value"] >= t["base_omega"] >= t["greedy_size"]
        assert t["beats_greedy"] in (0, 1)


# ---------------------------------------------------------------- conjecture


def test_conjecture2_probe_reports_histogram_and_ks():
    rep = conjecture2_probe(30, 0.4, 12, "exact", seed=31)
    assert len(rep.trials) == 12
    assert sum(rep.extras["histogram_counts"]) == 12
    assert len(rep.extras["histogram_edges"]) == 11
    assert np.isfinite(rep.extras["ks_statistic"])
    for t in rep.trials:
        # left endpoints land in [0, delta] unless a filler-range clique wins;
        # that case is flagged via in_planted_window, never asserted away
        assert 0.0 <= t["value"] <= 1.0
        if t["in_planted_window"]:
            assert t["value"] <= 0.4 + 1e-12


def test_ks_uniform_equals_scipy_bit_for_bit():
    """The numpy statistic against scipy's, on random samples of size 1-60,
    rounded samples full of ties, samples with exact 0s and 1s, skewed
    draws and one-point samples."""
    rng = np.random.default_rng(2718)
    samples = [rng.random(rng.integers(1, 61)) for _ in range(200)]
    samples += [np.round(rng.random(40), 1), rng.random(50) ** 4]
    samples += [np.array([0.0, 0.0, 0.25, 1.0, 1.0]), np.zeros(3), np.ones(3)]
    samples += [np.array([x]) for x in (0.0, 0.3, 1.0)]
    for x in samples:
        assert _ks_uniform(x.tolist()) == stats.kstest(x, "uniform").statistic, x


# ------------------------------------------------------------- pinned outputs

# CSV sha256 of one small run of each `tempclique experiment` name, plus a
# heuristic threshold run.  A record is a pure function of (params, seed, i),
# so any change to these digests changes what the experiments compute.
PINNED_CSV = {
    "window-prob": (
        "--name window-prob --h 5 --delta 0.4 --trials 200 --seed 1",
        "d844e47773868f4895a6ef19466d3d958116287b514e52b49ba21d3d2d28fdcc",
    ),
    "clique-count": (
        "--name clique-count --n 10 --k 3 --delta 0.3 --trials 5 --seed 2",
        "eaaf00df74ae8f7e54707476e1b4adc76097cd2d4cc2a39b04302f2efc322299",
    ),
    "threshold": (
        "--name threshold --ns 20,40 --delta 0.3 --trials 3 --seed 3",
        "209027c27c535a4b8d5a088809d0f7703bb902cefa5d8b1e64768ffa3ef7eb40",
    ),
    "threshold-heuristic": (
        "--name threshold --ns 60 --delta 0.5 --trials 2 --mode heuristic --seed 4",
        "9c8af1a5f971a717ee9a4ff99365441542d248323ff4e9e68d805a906525fd1f",
    ),
    "reduction": (
        "--name reduction --n 30 --delta 0.5 --trials 4 --seed 7",
        "b93677fd8ff08764dda5eb5ae7526b445edfe00c82a724f6bce82da3f27aedd3",
    ),
    "conjecture2": (
        "--name conjecture2 --n 30 --delta 0.5 --trials 4 --seed 8",
        "c972da0ccf3a0bdd4f3827b1c49f6e8ef4bdebc89d1235a53d0d109c52c9d685",
    ),
}


@pytest.mark.parametrize("name", PINNED_CSV)
def test_experiment_csv_is_pinned(tmp_path, capsys, name):
    args, digest = PINNED_CSV[name]
    code = main(["experiment", *args.split(), "--format", "csv", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert next(tmp_path.glob("*.csv")).read_text() == out


# JSON sha256 of the small exact threshold run above.  Its extras carry each
# trial's optimum width as a share of delta, which no CSV column holds.
PINNED_THRESHOLD_JSON = "73e4720723c3fd72bf68d61444b51b1447dc8308c7802b6d6b6096c1011af034"


def test_threshold_json_is_pinned(tmp_path, capsys):
    args, _ = PINNED_CSV["threshold"]
    code = main(["experiment", *args.split(), "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_THRESHOLD_JSON
    assert next(tmp_path.glob("*.json")).read_text() == out

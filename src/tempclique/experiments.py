"""Monte Carlo experiments for the clique-threshold closed forms.

Every experiment takes one master seed and derives per-trial sub-seeds with
`derive_seed`, so trial i's record is a pure function of (parameters, master
seed, i) and repeated runs are byte-identical.  The solver experiments take
a solver mode name and solve without a time budget, so no record depends on
wall time.  Trials run one at a time, in index order.  Each run produces an
ExperimentReport: per-trial records (always including the trial seed and a
"value" column) plus mean / sample variance / standard error aggregates that
can be recomputed from the records.  Reports serialize to a per-trial CSV and
a JSON aggregate named <name>_<params-hash>_<seed>.{csv,json}.

Acceptance bands (e.g. three-standard-error envelopes) are computed by the
callers that assert them; nothing here hard-codes a band.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, floor
from pathlib import Path

import numpy as np

from .analytics import comb_below, k0_threshold, window_probability
from .graphs import (
    TemporalGraph,
    _pair_index,
    generate_er,
    generate_random_complete,
    is_delta_clique,
)
from .io import atomic_write_text
from .seeds import derive_seed, uniform_block
from .solver import (
    InfeasibleConfigError,
    greedy_static_clique,
    max_delta_clique_exact,
    solve_max_delta_clique,
)

EXACT_SWEEP_MAX_N = 1000
CLIQUE_COUNT_MAX_SUBSETS = 10**6
_SUBSET_CHUNK = 100_000


def run_indexed(count: int, fn) -> list:
    """Evaluate fn(0..count-1) in order, returning the results as a list.

    fn must be a pure function of its index, so a trial's record is a pure
    function of (params, seed, i).
    """
    return [fn(i) for i in range(count)]


def _aggregate(values: list[float]) -> tuple[float, float, float, int]:
    """(mean, sample variance with ddof=1, standard error, count)."""
    count = len(values)
    if count == 0:
        raise ValueError("cannot aggregate zero trials")
    mean = math.fsum(values) / count
    if count > 1:
        variance = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    else:
        variance = 0.0
    stderr = math.sqrt(variance / count)
    return mean, variance, stderr, count


@dataclass
class ExperimentReport:
    """Per-trial records plus their aggregate for one experiment run."""

    name: str
    params: dict
    trials: list[dict]
    mean: float
    variance: float
    stderr: float
    count: int
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_trials(
        cls, name: str, params: dict, trials: list[dict], extras: dict | None = None
    ) -> "ExperimentReport":
        mean, variance, stderr, count = _aggregate([t["value"] for t in trials])
        return cls(name, dict(params), list(trials), mean, variance, stderr, count, extras or {})

    def csv_text(self) -> str:
        """The per-trial records as CSV with a header row."""
        buf = _io.StringIO()
        fields = list(self.trials[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.trials)
        return buf.getvalue()

    def json_text(self) -> str:
        """The aggregate report as JSON (no per-trial records)."""
        doc = {
            "name": self.name,
            "params": self.params,
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "stderr": self.stderr,
            "extras": self.extras,
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def file_stem(self) -> str:
        digest = hashlib.sha1(
            json.dumps(self.params, sort_keys=True, default=str).encode()
        ).hexdigest()[:10]
        return f"{self.name}_{digest}_{self.params.get('seed', 0)}"

    def write(self, outdir: str | Path) -> tuple[Path, Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / (self.file_stem() + ".csv")
        json_path = outdir / (self.file_stem() + ".json")
        atomic_write_text(csv_path, self.csv_text())
        atomic_write_text(json_path, self.json_text())
        return csv_path, json_path


def estimate_window_probability(h: int, delta: float, trials: int, seed: int) -> ExperimentReport:
    """Monte Carlo estimate of P(h uniform labels fit in a width-delta window).

    Draws trial i's h uniforms in counter mode from derive_seed(seed, i), so
    the whole block is computed vectorized yet equals what any per-trial
    schedule would produce.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if h < 0:
        raise ValueError("h must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if h <= 1:
        hits = np.ones(trials, dtype=np.int64)
    else:
        block = uniform_block(seed, trials, h)
        widths = block.max(axis=1) - block.min(axis=1)
        hits = (widths <= delta).astype(np.int64)
    records = [
        {"trial": i, "seed": derive_seed(seed, i), "value": int(hits[i])}
        for i in range(trials)
    ]
    params = {"h": h, "delta": delta, "trials": trials, "seed": seed}
    extras = {"closed_form": window_probability(h, delta)}
    return ExperimentReport.from_trials("window_prob", params, records, extras)


def _subset_edge_indices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-subsets of range(n) and the canonical edge index of each internal pair."""
    subsets = np.array(list(combinations(range(n), k)), dtype=np.int64)
    if k < 2:
        return subsets, np.empty((subsets.shape[0], 0), dtype=np.int64)
    ii, jj = zip(*combinations(range(k), 2))
    a = subsets[:, list(ii)]
    b = subsets[:, list(jj)]
    return subsets, _pair_index(n, a, b)


def estimate_clique_count(
    n: int, k: int, delta: float, trials: int, seed: int
) -> ExperimentReport:
    """Monte Carlo mean of the number of delta-temporal k-cliques in K_n.

    Each trial generates a fresh labeled instance and counts, over all C(n ,k)
    vertex subsets, those whose internal labels span at most delta.  Guarded
    to C(n, k) <= 10^6 subsets.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 1 <= k <= n:
        raise ValueError("require 1 <= k <= n")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    n_subsets = comb_below(n, k, CLIQUE_COUNT_MAX_SUBSETS + 1)
    if n_subsets is None:
        raise InfeasibleConfigError(
            f"C({n}, {k}) exceeds the {CLIQUE_COUNT_MAX_SUBSETS} subset guard"
        )
    _, edge_idx = _subset_edge_indices(n, k)

    def one_trial(i: int) -> dict:
        s = derive_seed(seed, i)
        tg = generate_random_complete(n, s)
        if edge_idx.shape[1] == 0:
            count = n_subsets
        else:
            count = 0
            for lo in range(0, n_subsets, _SUBSET_CHUNK):
                sub = tg.labels[edge_idx[lo : lo + _SUBSET_CHUNK]]
                count += int((sub.max(axis=1) - sub.min(axis=1) <= delta).sum())
        return {"trial": i, "seed": s, "value": count}

    records = run_indexed(trials, one_trial)
    params = {"n": n, "k": k, "delta": delta, "trials": trials, "seed": seed}
    extras = {"subsets": n_subsets}
    return ExperimentReport.from_trials("clique_count", params, records, extras)


def _solver_trials(
    name: str, ns: list[int], delta: float, trials: int, mode: str, seed: int, trial
) -> list:
    """Check the inputs of the solver experiment `name`, then run
    trial(n, t, s) for every n in ns and t < trials, n-major.

    The checks run in this order: trials >= 1, then 0 < delta < 1, then ns
    (at least one n, no n repeated, every n >= 2, and the exact and
    bruteforce guards).  Trial t at size n gets the seed
    s = derive_seed(derive_seed(seed, n), t), so its record does not depend
    on which other sizes run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly in (0, 1)")
    if not ns:
        raise ValueError("sweeps need at least one n")
    if len(set(ns)) != len(ns):
        raise ValueError(f"sweeps need distinct n values, got {ns}")
    for n in ns:
        if n < 2:
            raise ValueError(f"{name} needs n >= 2")
        if mode == "exact" and n > EXACT_SWEEP_MAX_N:
            raise InfeasibleConfigError(
                f"exact sweeps are guarded to n <= {EXACT_SWEEP_MAX_N}; "
                "request the heuristic for larger n"
            )
        if mode == "bruteforce":
            raise InfeasibleConfigError("sweeps do not run the bruteforce solver")

    def one_trial(idx: int) -> dict:
        n = ns[idx // trials]
        t = idx % trials
        return trial(n, t, derive_seed(derive_seed(seed, n), t))

    return run_indexed(len(ns) * trials, one_trial)


def _solve_complete(n: int, delta: float, mode: str, s: int):
    """Solve the random complete instance of trial seed s at delta."""
    tg = generate_random_complete(n, s)
    return solve_max_delta_clique(tg, delta, mode, seed=derive_seed(s, 1))


def threshold_sweep(
    ns: list[int], delta: float, trials: int, mode: str, seed: int
) -> ExperimentReport:
    """Measure omega(n) against the threshold 2 ln n / ln(1/delta), for a
    constant delta in (0, 1).

    One record per (n, trial) with the ratio omega/k0 as the value, plus
    per-trial band indicators omega <= ceil(1.25 k0) and omega >= floor(0.5
    k0).  Solves run unbudgeted, so exact trials always have optimal = 1;
    heuristic ones have optimal = 0, and their omega only lower-bounds the
    true one.  The extras carry, per n, each trial's optimum interval width
    as a share of delta (`width_ratio`, in trial order) and its median.
    """
    ns = [int(n) for n in ns]

    def trial(n: int, t: int, s: int) -> tuple[dict, float]:
        res = _solve_complete(n, delta, mode, s)
        omega = res.clique.size
        k0 = k0_threshold(n, delta)
        record = {
            "n": n,
            "trial": t,
            "seed": s,
            "delta": delta,
            "value": omega / k0,
            "omega": omega,
            "k0": k0,
            "upper_ok": int(omega <= ceil(1.25 * k0)),
            "lower_ok": int(omega >= floor(0.5 * k0)),
            "optimal": int(res.optimal),
        }
        return record, res.clique.width / delta

    outcomes = _solver_trials("threshold", ns, delta, trials, mode, seed, trial)
    records = [record for record, _ in outcomes]
    width_ratio = {
        str(n): [ratio for record, ratio in outcomes if record["n"] == n] for n in ns
    }
    params = {"ns": ns, "delta": delta, "trials": trials, "seed": seed, "mode": mode}
    extras = {
        "median_omega": {
            str(n): float(np.median([r["omega"] for r in records if r["n"] == n]))
            for n in ns
        },
        "median_ratio": {
            str(n): float(np.median([r["value"] for r in records if r["n"] == n]))
            for n in ns
        },
        "k0": {str(n): k0_threshold(n, delta) for n in ns},
        "width_ratio": width_ratio,
        "median_width_ratio": {n: float(np.median(r)) for n, r in width_ratio.items()},
    }
    return ExperimentReport.from_trials("threshold_sweep", params, records, extras)


@dataclass(frozen=True)
class PlantedInstance:
    """A complete labeled instance hiding a static base graph (a temporal
    graph whose labels are all 0, as `generate_er` draws it).

    Base edges carry labels from `planted_range`; all other pairs carry
    labels from [delta, 1), so no filler label can fall inside a planted
    window that starts below delta.
    """

    base: TemporalGraph
    temporal: TemporalGraph
    planted_range: tuple[float, float]


def build_planted_instance(
    base: TemporalGraph, delta: float, mode: str, seed: int
) -> PlantedInstance:
    """Embed the edges of `base`, labels ignored, into a complete labeled
    instance.

    mode="half": base labels uniform on [0, delta/2), filler on [delta, 1) —
    solving at delta/2 then separates base cliques from any mixed set.
    mode="full": base labels uniform on [0, delta), filler on [delta, 1).
    """
    if mode not in ("half", "full"):
        raise ValueError("mode must be 'half' or 'full'")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly in (0, 1)")
    n = base.n
    if n < 2:
        raise ValueError("base graph needs at least 2 vertices")
    planted_hi = delta / 2.0 if mode == "half" else delta
    iu, iv = np.triu_indices(n, k=1)
    m = iu.size
    mask = np.zeros(m, dtype=bool)
    if base.m:
        mask[_pair_index(n, base.u, base.v)] = True
    rng = np.random.default_rng(seed)
    labels = np.empty(m)
    labels[mask] = rng.random(int(mask.sum())) * planted_hi
    labels[~mask] = delta + rng.random(int(m - mask.sum())) * (1.0 - delta)
    tg = TemporalGraph(n, iu.astype(np.int64), iv.astype(np.int64), labels)
    return PlantedInstance(base, tg, (0.0, planted_hi))


def _solve_planted(n: int, delta: float, plant: str, mode: str, s: int):
    """Plant a G(n, delta) base drawn from trial seed s with the planting
    mode `plant` and solve the planted instance with the solver `mode` at the
    top of its planted window; returns (planted, result)."""
    base = generate_er(n, delta, derive_seed(s, 0))
    planted = build_planted_instance(base, delta, plant, derive_seed(s, 1))
    res = solve_max_delta_clique(
        planted.temporal, planted.planted_range[1], mode, seed=derive_seed(s, 2)
    )
    return planted, res


def reduction_experiment(
    n: int, delta: float, trials: int, mode: str, seed: int
) -> ExperimentReport:
    """Static-max-clique reduction check on planted instances.

    Per trial: draw a G(n, delta) base, plant it with mode="half", solve the
    temporal instance at delta/2, and record whether the witness is a clique
    of the base graph, whether its interval sits inside the planted window,
    the base graph's clique number (which the reduction guarantees an exact
    witness reaches), and how the witness compares to a greedy static clique
    of the base.
    """

    def trial(n: int, t: int, s: int) -> dict:
        planted, res = _solve_planted(n, delta, "half", mode, s)
        base = planted.base
        greedy_size = len(greedy_static_clique(base))
        return {
            "trial": t,
            "seed": s,
            "value": res.clique.size,
            "base_clique": int(is_delta_clique(base, res.clique.vertices, 0.0)),
            "in_planted_window": int(res.clique.interval_max <= planted.planted_range[1]),
            "base_omega": max_delta_clique_exact(base, 0.0).clique.size,
            "greedy_size": greedy_size,
            "beats_greedy": int(res.clique.size >= greedy_size),
            "optimal": int(res.optimal),
        }

    records = _solver_trials("reduction", [n], delta, trials, mode, seed, trial)
    params = {"n": n, "delta": delta, "trials": trials, "seed": seed, "mode": mode}
    return ExperimentReport.from_trials("reduction", params, records)


def _ks_uniform(sample: list[float]) -> float:
    """The two-sided Kolmogorov-Smirnov statistic of a nonempty sample
    against uniform[0, 1]: the larger of max(i/k - x_(i)) and
    max(x_(i) - (i-1)/k) over the sorted, clipped x_(1..k)."""
    x = np.sort(np.clip(sample, 0.0, 1.0))
    i = np.arange(1, x.size + 1)
    return float(max(np.max(i / x.size - x), np.max(x - (i - 1) / x.size)))


def conjecture2_probe(
    n: int, delta: float, trials: int, mode: str, seed: int
) -> ExperimentReport:
    """Where does the optimum clique's interval sit inside [0, delta]?

    Uses mode="full" planted instances so the optimum's interval lands in
    [0, delta); records the left endpoint (the value column), the width, and
    the left endpoint normalized by its feasible range delta - width.  The
    extras carry a 10-bin histogram of left endpoints and the KS statistic
    of the normalized endpoints against uniform[0, 1] (None when no trial
    has a normalized endpoint) — reported, never asserted.
    """

    def trial(n: int, t: int, s: int) -> dict:
        planted, res = _solve_planted(n, delta, "full", mode, s)
        left = res.clique.interval_min
        width = res.clique.width
        slack = delta - width
        return {
            "trial": t,
            "seed": s,
            "value": left,
            "width": width,
            "normalized_left": left / slack if slack > 1e-12 else 0.0,
            "size": res.clique.size,
            "in_planted_window": int(res.clique.interval_max <= planted.planted_range[1]),
            "optimal": int(res.optimal),
        }

    records = _solver_trials("conjecture2", [n], delta, trials, mode, seed, trial)
    lefts = [r["value"] for r in records]
    normalized = [
        r["normalized_left"]
        for r in records
        if delta - r["width"] > 1e-12 and r["in_planted_window"]
    ]
    # bins cover [0, 1] so the counts always sum to the trial count, even on
    # the rare trials where a filler-range clique wins (left endpoint > delta)
    hist, edges = np.histogram(lefts, bins=10, range=(0.0, 1.0))
    ks_stat = _ks_uniform(normalized) if normalized else None
    params = {"n": n, "delta": delta, "trials": trials, "seed": seed, "mode": mode}
    extras = {
        "histogram_counts": hist.tolist(),
        "histogram_edges": edges.tolist(),
        "ks_statistic": ks_stat,
        "normalized_count": len(normalized),
    }
    return ExperimentReport.from_trials("conjecture2", params, records, extras)

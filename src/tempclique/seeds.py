"""Deterministic 64-bit seed derivation for independent Monte Carlo streams.

A single master seed drives every experiment.  Per-trial seeds are derived
by mixing (master, index) through the splitmix64 finalizer, so the seed of
trial i depends only on (master, i), and trial i's record is a pure function
of (params, seed, i).  The derived seeds feed numpy PCG64 generators; the
vectorized counter-mode helper below is for hot loops where constructing one
Generator per trial would dominate the run time.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix on 64-bit ints."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Derive the sub-stream seed for trial `index` of a run seeded by `master`.

    Pure function of (master, index): it does not depend on which trials ran
    before, so a trial's record is a pure function of (params, seed, i).
    """
    return mix64((master + (index + 1) * _GOLDEN) & _MASK64)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform_block(master: int, n_trials: int, per_trial: int) -> np.ndarray:
    """Counter-mode block of uniforms: shape (n_trials, per_trial) in [0, 1).

    Entry (i, j) is a pure function of (master, i, j), built from the same
    splitmix64 derivation as `derive_seed`, so a blocked computation gives
    byte-identical results to drawing each trial on its own.
    """
    if n_trials < 0 or per_trial < 0:
        raise ValueError("n_trials and per_trial must be nonnegative")
    idx = np.arange(n_trials, dtype=np.uint64)
    trial_seeds = _mix64_np(
        np.uint64(master & _MASK64) + (idx + np.uint64(1)) * np.uint64(_GOLDEN)
    )
    ctr = (np.arange(per_trial, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    bits = _mix64_np(trial_seeds[:, None] + ctr[None, :])
    # Top 53 bits -> double in [0, 1), the usual 53-bit mantissa trick.
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0**-53)

"""Seed derivation: determinism, schedule independence, and uniformity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tempclique.seeds import _GOLDEN, _MASK64, derive_seed, mix64, uniform_block


def test_derive_seed_is_deterministic():
    assert derive_seed(1729, 0) == derive_seed(1729, 0)
    assert derive_seed(1729, 0) != derive_seed(1729, 1)
    assert derive_seed(1729, 5) != derive_seed(1730, 5)


def test_derive_seed_stays_in_64_bits():
    for master in (0, 1, 2**63, 2**64 - 1):
        for idx in (0, 1, 10**6):
            s = derive_seed(master, idx)
            assert 0 <= s < 2**64


def test_mix64_is_bijective_on_samples():
    """splitmix64's finalizer is a bijection; sampled outputs must not collide."""
    xs = list(range(2000)) + [2**64 - 1 - i for i in range(2000)]
    outs = {mix64(x) for x in xs}
    assert len(outs) == len(xs)


def test_uniform_block_matches_per_trial_derivation():
    """Row i of a block must equal what a lone trial i would draw.

    The blocked (vectorized) computation and one trial at a time produce the
    same numbers, since entry (i, j) is a pure function of (seed, i, j).
    """
    master = 99
    block = uniform_block(master, 16, 7)
    for i in range(16):
        seed_i = derive_seed(master, i)
        row = [
            (mix64((seed_i + (j + 1) * _GOLDEN) & _MASK64) >> 11) * 2.0**-53
            for j in range(7)
        ]
        assert np.array_equal(block[i], np.array(row))


def test_uniform_block_bounds_and_mean():
    block = uniform_block(7, 2000, 8)
    assert block.shape == (2000, 8)
    assert block.min() >= 0.0
    assert block.max() < 1.0
    # mean of 16000 uniforms: SE ~ 0.0023, allow 5 sigma
    assert abs(block.mean() - 0.5) < 0.012


def test_uniform_block_rejects_negative_sizes():
    import pytest

    with pytest.raises(ValueError):
        uniform_block(1, -1, 4)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**20))
@settings(deadline=None, max_examples=50)
def test_derive_seed_pure(master, index):
    assert derive_seed(master, index) == derive_seed(master, index)
    assert 0 <= derive_seed(master, index) < 2**64

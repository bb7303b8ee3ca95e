"""Closed forms: densities, window probability, expected counts, threshold, overlap bound.

Expected values come from independent routes: exact rational arithmetic
(Fraction), alternative closed forms, quadrature, or seeded Monte Carlo —
never from the implementation under test.
"""

from fractions import Fraction
from math import comb, exp, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tempclique import analytics
from tempclique.analytics import (
    comb_below,
    expected_clique_count,
    k0_threshold,
    log_choose,
    log_expected_clique_count,
    log_window_probability,
    min_density,
    minmax_joint_density,
    second_moment_overlap_bound,
    window_probability,
)
from tempclique.seeds import uniform_block

# ------------------------------------------------------------ test oracles:
# exact rational versions of the closed forms, kept deliberately separate
# from the float implementations they check.


def wp_fraction(h: int, d: Fraction) -> Fraction:
    if h <= 1:
        return Fraction(1)
    return h * d ** (h - 1) * (1 - d) + d**h


def expected_count_fraction(n: int, k: int, d: Fraction) -> Fraction:
    return comb(n, k) * wp_fraction(comb(k, 2), d)


def overlap_bound_fraction(n: int, k: int, d: Fraction) -> Fraction:
    total = Fraction(0)
    for t in range(1, k):
        total += Fraction(comb(k, t) * comb(n - k, k - t), comb(n, k)) / (
            d ** comb(t, 2) * (1 - d)
        )
    return total


# ---------------------------------------------------------------- densities


def test_joint_density_base_case_is_constant_two():
    for x, y in ((0.0, 0.0), (0.2, 0.7), (1.0, 1.0)):
        assert minmax_joint_density(2, x, y) == 2.0


def test_joint_density_vanishes_above_diagonal():
    assert minmax_joint_density(5, 0.8, 0.2) == 0.0


def test_joint_density_point_values():
    # m(m-1)(y-x)^(m-2): 4*3*0.5^2 = 3.0
    assert minmax_joint_density(4, 0.25, 0.75) == pytest.approx(3.0, rel=1e-15)


def test_joint_density_integrates_to_one():
    val, err = integrate.dblquad(
        lambda y, x: minmax_joint_density(3, x, y), 0.0, 1.0, lambda x: x, lambda x: 1.0
    )
    assert abs(val - 1.0) <= 1e-8


def test_min_density_point_values():
    assert min_density(1, 0.3) == 1.0
    assert min_density(2, 0.0) == 2.0
    # 5*(0.5)^4 = 0.3125
    assert min_density(5, 0.5) == pytest.approx(0.3125, rel=1e-15)


def test_min_density_integrates_to_one():
    val, err = integrate.quad(lambda x: min_density(7, x), 0.0, 1.0)
    assert abs(val - 1.0) <= 1e-8


def test_density_validation():
    with pytest.raises(ValueError):
        minmax_joint_density(1, 0.1, 0.2)
    with pytest.raises(ValueError):
        minmax_joint_density(3, -0.1, 0.2)
    with pytest.raises(ValueError):
        min_density(0, 0.5)
    with pytest.raises(ValueError):
        min_density(3, 1.2)


# --------------------------------------------------------- window probability


def test_window_probability_trivial_h_is_exactly_one():
    for d in (0.0, 0.3, 0.7, 1.0):
        assert window_probability(0, d) == 1.0
        assert window_probability(1, d) == 1.0


def test_window_probability_pair_matches_geometric_oracle():
    """For two uniforms, P(|x - y| <= d) = 1 - (1 - d)^2 (area argument)."""
    for d in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        assert window_probability(2, d) == pytest.approx(1.0 - (1.0 - d) ** 2, abs=1e-15)
    assert window_probability(2, 0.5) == 0.75


def test_window_probability_triple_point():
    # 3 * 0.25 * 0.5 + 0.125 = 0.5
    assert window_probability(3, 0.5) == pytest.approx(0.5, rel=1e-15)


def test_window_probability_monte_carlo_oracle():
    """Seeded MC estimate for (h=3, d=0.5) within 3 binomial sigma of 0.5."""
    block = uniform_block(424242, 10**6, 3)
    widths = block.max(axis=1) - block.min(axis=1)
    estimate = float((widths <= 0.5).mean())
    sigma = (0.25 / 10**6) ** 0.5
    assert abs(estimate - 0.5) <= 3 * sigma
    assert abs(window_probability(3, 0.5) - estimate) <= 3 * sigma


def test_window_probability_extremes():
    assert window_probability(10, 0.0) == 0.0
    assert window_probability(10, 1.0) == 1.0


def test_window_probability_monotone_in_delta_and_h():
    deltas = np.linspace(0.0, 1.0, 21)
    for h in (2, 3, 6, 10, 40):
        vals = [window_probability(h, float(d)) for d in deltas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    for d in (0.1, 0.5, 0.9):
        vals = [window_probability(h, d) for h in range(2, 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_window_probability_dominates_delta_power():
    for h in (2, 5, 12):
        for d in (0.05, 0.3, 0.8):
            assert window_probability(h, d) >= d**h


def test_log_window_probability_consistent():
    for h in (2, 5, 20):
        for d in (0.1, 0.5, 0.9):
            assert exp(log_window_probability(h, d)) == pytest.approx(
                window_probability(h, d), rel=1e-12
            )
    assert log_window_probability(1, 0.3) == 0.0
    assert log_window_probability(40, 0.0) == float("-inf")


def test_window_probability_validation():
    with pytest.raises(ValueError):
        window_probability(-1, 0.5)
    with pytest.raises(ValueError):
        window_probability(3, 1.5)


# ------------------------------------------------------------ expected count


def test_expected_count_tetrahedron_is_exactly_two():
    assert expected_clique_count(4, 3, 0.5) == 2.0


def test_expected_count_small_k_identities():
    for n in (2, 10, 50):
        for d in (0.1, 0.6):
            assert expected_clique_count(n, 1, d) == float(n)
            if n >= 2:
                assert expected_clique_count(n, 2, d) == float(comb(n, 2))


def test_expected_count_composes_exactly_on_small_inputs():
    """Below 2^53 the product C(n,k) * wp must hold bit for bit."""
    for n in (5, 12, 30):
        for k in range(1, min(n, 10) + 1):
            for d in (0.05, 0.3, 0.5, 0.9):
                assert expected_clique_count(n, k, d) == comb(n, k) * window_probability(
                    comb(k, 2), d
                )


def test_expected_count_matches_rational_oracle():
    cases = [(30, 10, Fraction(1, 2)), (40, 6, Fraction(3, 10)), (100, 4, Fraction(9, 10))]
    for n, k, d in cases:
        exact = expected_count_fraction(n, k, d)
        assert expected_clique_count(n, k, float(d)) == pytest.approx(
            float(exact), rel=1e-12
        )


def test_expected_count_log_path_matches_rational_oracle():
    """Force the lgamma route (C(n,k) >= 2^53) and compare to Fraction."""
    n, k, d = 400, 30, Fraction(1, 2)
    assert comb(n, k) >= 2**53
    exact = expected_count_fraction(n, k, d)
    got = expected_clique_count(n, k, float(d))
    assert got == pytest.approx(float(exact), rel=1e-9)


def test_log_expected_count_trend_across_threshold():
    """ln E is positive at 0.5*k0, negative at 1.25*k0, decreasing between."""
    d = 0.5
    for n in (10**3, 10**4, 10**5, 10**6):
        k0 = k0_threshold(n, d)
        ks = sorted({int(0.5 * k0), int(0.75 * k0), int(k0), int(1.25 * k0) + 1})
        vals = [log_expected_clique_count(n, k, d) for k in ks]
        assert vals[0] > 0.0
        assert vals[-1] < 0.0
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_expected_count_never_computes_a_huge_binomial(monkeypatch):
    """Whether C(n, k) is below 2^53 is decided without computing it: at
    n = 10^6, k = 5 * 10^5 that took seconds, to print 0.0."""

    def small_comb_only(n, k):
        assert min(k, n - k) <= 64, f"comb({n}, {k}) computed"
        return comb(n, k)

    monkeypatch.setattr(analytics, "comb", small_comb_only)
    assert expected_clique_count(10**6, 5 * 10**5, 0.5) == 0.0
    assert expected_clique_count(2**52, 1, 0.5) == float(2**52)


def test_expected_count_validation():
    with pytest.raises(ValueError):
        expected_clique_count(4, 5, 0.5)
    with pytest.raises(ValueError):
        expected_clique_count(4, 0, 0.5)
    with pytest.raises(ValueError):
        expected_clique_count(4, 2, -0.1)


# ------------------------------------------------------------------ threshold


def test_k0_frozen_values():
    # 2 ln(1000)/ln 2 and 2 ln(300)/ln(10/3), high-precision references
    assert k0_threshold(1000, 0.5) == pytest.approx(19.931568569324174, rel=1e-14)
    assert k0_threshold(300, 0.3) == pytest.approx(9.474935736359191, rel=1e-14)


def test_k0_inverse_square_delta_gives_one():
    for n in (5, 50, 1000):
        assert k0_threshold(n, 1.0 / n**2) == pytest.approx(1.0, rel=1e-9)


def test_k0_monotone_in_n_and_delta():
    ns = [10, 100, 1000, 10**5]
    vals = [k0_threshold(n, 0.4) for n in ns]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    ds = [0.1, 0.3, 0.5, 0.7, 0.9]
    vals = [k0_threshold(500, d) for d in ds]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_k0_validation():
    with pytest.raises(ValueError):
        k0_threshold(1, 0.5)
    with pytest.raises(ValueError):
        k0_threshold(10, 0.0)
    with pytest.raises(ValueError):
        k0_threshold(10, 1.0)


# --------------------------------------------------------------- overlap bound


def test_overlap_bound_pair_closed_form():
    """k=2 collapses to 2(n-2) / (C(n,2)(1-d)); at (10, 2, 0.3) that is 32/63."""
    got = second_moment_overlap_bound(10, 2, 0.3)
    assert got == pytest.approx(float(Fraction(32, 63)), rel=1e-12)
    for n in (6, 20, 77):
        for d in (0.2, 0.5):
            want = 2 * (n - 2) / (comb(n, 2) * (1 - d))
            assert second_moment_overlap_bound(n, 2, d) == pytest.approx(want, rel=1e-12)


def test_overlap_bound_matches_rational_oracle():
    cases = [(10, 3, Fraction(1, 2)), (100, 5, Fraction(3, 10)), (60, 8, Fraction(7, 10))]
    for n, k, d in cases:
        exact = overlap_bound_fraction(n, k, d)
        got = second_moment_overlap_bound(n, k, float(d))
        assert got == pytest.approx(float(exact), rel=1e-9)
    # hand value: (10, 3, 1/2) sums to 7/4
    assert second_moment_overlap_bound(10, 3, 0.5) == pytest.approx(1.75, rel=1e-12)


def test_overlap_bound_vanishes_below_threshold_at_scale():
    """At n = 10^6, d = 0.5, k = floor(0.8 k0): the bound must be < 1."""
    n, d = 10**6, 0.5
    k = int(0.8 * k0_threshold(n, d))
    assert second_moment_overlap_bound(n, k, d) < 1.0


def test_overlap_bound_validation():
    with pytest.raises(ValueError):
        second_moment_overlap_bound(10, 1, 0.5)
    with pytest.raises(ValueError):
        second_moment_overlap_bound(10, 6, 0.5)
    with pytest.raises(ValueError):
        second_moment_overlap_bound(10, 3, 1.0)


# ----------------------------------------------------------------- utilities


def test_log_choose_matches_exact():
    """Every k at n up to 10^4, and min(k, n - k) <= 1000 at n up to 10^18,
    against the log of the exact binomial, built up one factor at a time.
    A plain difference of lgammas gave ln C(10^15, 1) = 32.0 for 34.54, and
    E[X_1] = 1.0 for C(2^53, 1)."""
    for n in (1, 2, 5, 30, 200, 256, 257, 1000, 10**4, 10**6, 2**53, 10**15, 10**18):
        c = 1
        for k in range(min(n, 1000) + 1):
            assert log_choose(n, k) == pytest.approx(log(c), rel=1e-12, abs=1e-300)
            assert log_choose(n, n - k) == pytest.approx(log(c), rel=1e-12, abs=1e-300)
            c = c * (n - k) // (k + 1)
    assert log_choose(10**15, 1) == pytest.approx(log(10**15), rel=1e-12)
    assert expected_clique_count(2**53, 1, 0.5) == pytest.approx(2**53, rel=1e-12)
    assert log_choose(5, 9) == float("-inf")


def test_comb_below_matches_exact():
    for n in range(60):
        for k in range(n + 1):
            for limit in (0, 1, 2, 35, comb(n, k), comb(n, k) + 1, 10**6 + 1, 2**53):
                expected = comb(n, k) if comb(n, k) < limit else None
                assert comb_below(n, k, limit) == expected, (n, k, limit)


@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(deadline=None, max_examples=80)
def test_window_probability_stays_in_unit_interval(h, d):
    p = window_probability(h, d)
    assert 0.0 <= p <= 1.0


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
@settings(deadline=None, max_examples=60)
def test_expected_count_composition_property(n, k, d):
    k = min(k, n)
    assert expected_clique_count(n, k, d) == comb(n, k) * window_probability(comb(k, 2), d)

"""Closed-form quantities for uniformly labeled random temporal graphs.

Everything here is about m i.i.d. uniform-[0,1] edge labels: the joint
density of their min and max, the probability that all of them fit in a
window of width delta, the expected number of delta-cliques of size k in a
labeled complete graph, the threshold size 2 ln n / ln(1/delta), and the
second-moment overlap bound used below the threshold.  Large-parameter paths
run in log space via lgamma; small-parameter paths use exact integer
combinatorics so compositional identities hold to the last bit.
"""

from __future__ import annotations

from math import comb, exp, inf, lgamma, log, log1p

_EXACT_FLOAT_LIMIT = 2**53


def minmax_joint_density(m: int, x: float, y: float) -> float:
    """Joint density of (min, max) of m uniforms: m(m-1)(y-x)^(m-2) on 0<=x<=y<=1.

    Defined for m >= 2; zero outside the triangle x <= y.
    """
    if m < 2:
        raise ValueError("joint min/max density requires m >= 2")
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("x and y must lie in [0, 1]")
    if x > y:
        return 0.0
    if m == 2:
        return 2.0
    return m * (m - 1) * (y - x) ** (m - 2)


def min_density(m: int, x: float) -> float:
    """Density of the min of m uniforms: m(1-x)^(m-1) on [0, 1]."""
    if m < 1:
        raise ValueError("min density requires m >= 1")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return m * (1.0 - x) ** (m - 1)


def window_probability(h: int, delta: float) -> float:
    """P(max - min <= delta) for h i.i.d. uniform labels.

    Equals h * delta^(h-1) * (1 - delta) + delta^h.  For h in {0, 1} the
    event is vacuous and the probability is exactly 1.0 (the closed form
    would reintroduce rounding noise at h = 1).
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if h <= 1:
        return 1.0
    return h * delta ** (h - 1) * (1.0 - delta) + delta**h


def log_window_probability(h: int, delta: float) -> float:
    """ln of `window_probability`, stable for large h."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if h <= 1 or delta == 1.0:
        return 0.0
    if delta == 0.0:
        return -inf
    # h*d^(h-1)*(1-d) + d^h = d^(h-1) * (h*(1-d) + d)
    return (h - 1) * log(delta) + log(h * (1.0 - delta) + delta)


def log_choose(n: int, k: int) -> float:
    """ln C(n, k) in O(1).  Past n = 256, lgamma(n + 1) is too large to keep
    the digits of a small k, so ln(n! / (n - j)!), j = min(k, n - k), comes
    from Stirling's series with its leading terms cancelled by hand."""
    if k < 0 or k > n:
        return -inf
    if n <= 256:
        return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
    j = min(k, n - k)
    a, b = 1 / n, 1 / (n - j)
    tails = (a - b) / 12 - (a**3 - b**3) / 360
    return j * log(n) - (n - j + 0.5) * log1p(-j / n) - j + tails - lgamma(j + 1)


def comb_below(n: int, k: int, limit: int) -> int | None:
    """C(n, k) when it is below `limit`, else None, for 0 <= k <= n.

    Builds C(n, i) = C(n, i - 1) (n - i + 1) / i exactly for i up to
    min(k, n - k), where it never decreases, and stops once it reaches
    `limit`; since C(n, i) >= 2^i there, that takes at most log2(limit) + 1
    steps, however large n and k are.
    """
    c = 1
    for i in range(min(k, n - k)):
        if c >= limit:
            break
        c = c * (n - i) // (i + 1)
    return c if c < limit else None


def expected_clique_count(n: int, k: int, delta: float) -> float:
    """E[number of delta-temporal k-cliques] in a labeled complete graph on n vertices.

    Equals C(n, k) * window_probability(C(k, 2), delta).  When C(n, k) is
    exactly representable in a double the product is computed directly, so
    the compositional identity with `window_probability` holds bit-for-bit;
    otherwise the result is exponentiated from log space.
    """
    if not 1 <= k <= n:
        raise ValueError("require 1 <= k <= n")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    c = comb_below(n, k, _EXACT_FLOAT_LIMIT)
    h = comb(k, 2)
    if c is not None:
        return c * window_probability(h, delta)
    return exp(log_choose(n, k) + log_window_probability(h, delta))


def log_expected_clique_count(n: int, k: int, delta: float) -> float:
    """ln of `expected_clique_count`, usable far beyond double range."""
    if not 1 <= k <= n:
        raise ValueError("require 1 <= k <= n")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    return log_choose(n, k) + log_window_probability(comb(k, 2), delta)


def k0_threshold(n: int, delta: float) -> float:
    """The first-moment threshold size 2 ln n / ln(1/delta).

    Natural logarithms throughout; requires n >= 2 and 0 < delta < 1.
    Expected counts vanish for k well above this and blow up well below it.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly in (0, 1)")
    return 2.0 * log(n) / -log(delta)


def _exp_clipped(x: float) -> float:
    return inf if x > 709.0 else exp(x)


def second_moment_overlap_bound(n: int, k: int, delta: float) -> float:
    """Upper bound on Var/E^2 for the count of delta-temporal k-cliques.

    sum_{t=1}^{k-1} C(k,t) C(n-k,k-t) / (C(n,k) delta^C(t,2) (1-delta)).
    When this sum is o(1), cliques of size k exist with high probability.
    Requires 2 <= k and 2k <= n (two disjoint k-sets must fit).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if 2 * k > n:
        raise ValueError("require 2k <= n")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly in (0, 1)")
    lcnk = log_choose(n, k)
    ld = log(delta)
    l1md = log1p(-delta)
    total = 0.0
    for t in range(1, k):
        lt = (
            log_choose(k, t)
            + log_choose(n - k, k - t)
            - lcnk
            - comb(t, 2) * ld
            - l1md
        )
        total += _exp_clipped(lt)
    return total

"""Closed-form run-time bounds for single-bit local search on majority plateaus."""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_params(n: int, r: int, min_r: int = 1) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    if not min_r <= r <= n // 2:
        raise ValueError(f"r must lie in [{min_r}..n/2], got r={r} for n={n}")


def _pow(base: float, exponent: float) -> float:
    """base**exponent as exp(exponent * ln base); +inf instead of overflow."""
    if exponent == 0:
        return 1.0
    try:
        return math.exp(exponent * math.log(base))
    except OverflowError:
        return math.inf


def potential_base(n: int, r: int) -> float:
    """Base of the exponential potential that prices distance on the plateau.

    Always greater than 1: the denominator 3r(n - 2(r-1)) - 2n is a concave
    quadratic in r equal to n at both r=1 and r=n/2, hence at least n on
    the whole range.  Undefined for r=0, where the function is constant
    and the run time is 0 by definition.
    """
    _check_params(n, r)
    num = 3 * r * (n + 2 * (r - 1))
    den = 3 * r * (n - 2 * (r - 1)) - 2 * n
    return num / den


def drift_delta(n: int, r: int) -> float:
    """Additive drift floor (base - 1) / (3r) of the scaled level potential."""
    return (potential_base(n, r) - 1.0) / (3.0 * r)


def potential(n: int, r: int, m: int) -> float:
    """Potential of majority-count level m in [n/2..n]; zero at optimal levels."""
    _check_params(n, r)
    if not n // 2 <= m <= n:
        raise ValueError(f"level m must lie in [n/2..n], got m={m} for n={n}")
    if m >= n // 2 + r:
        return 0.0
    lam = potential_base(n, r)
    return _pow(lam, r) - _pow(lam, m - n // 2)


def plateau_bound(n: int, r: int, m0: int) -> float:
    """Expected-crossing-time upper bound from majority-count level m0.

    Equals 3r * potential(m0) / (base - 1); zero once m0 is an optimal
    level, and zero everywhere for r=0.
    """
    _check_params(n, r, min_r=0)
    if not n // 2 <= m0 <= n:
        raise ValueError(f"start level m0 must lie in [n/2..n], got {m0}")
    if r == 0:
        return 0.0
    lam = potential_base(n, r)
    return 3.0 * r * potential(n, r, m0) / (lam - 1.0)


def majority_bound(n: int, r: int) -> float:
    """Upper bound for the one-sided objective under uniform initialization.

    Combines twice the worst-case crossing bound with the expected cost of
    walking back from a wrong-sided optimum: 6r(base^r - 1)/(base - 1)
    + n(1 + ln r)/2, and +inf once base^r overflows.  At r=0 only the
    two-sided plateau is flat; the one-sided objective still has to reach
    n/2 ones, which takes at most the recovery bound from all zeros,
    n(1 + ln(n/2))/2.
    """
    _check_params(n, r, min_r=0)
    if r == 0:
        return majority_of_ones_bound(n, n // 2)
    lam = potential_base(n, r)
    return 6.0 * r * (_pow(lam, r) - 1.0) / (lam - 1.0) + majority_of_ones_bound(n, r)


def majority_of_ones_bound(n: int, d: int) -> float:
    """Bound n(1 + ln d)/2 on the expected time to reach n/2 ones from n/2 + d zeros."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    if not 1 <= d <= n // 2:
        raise ValueError(f"zeros surplus d must lie in [1..n/2], got {d}")
    return n * (1.0 + math.log(d)) / 2.0


def block_bound(k: int) -> float:
    """Uniform-init bound 6 + k/2 for a single width-k block vote (k even)."""
    if k < 2 or k % 2:
        raise ValueError(f"block width must be an even integer >= 2, got {k}")
    return 6.0 + k / 2.0


@dataclass(frozen=True)
class BoundSet:
    """All closed-form quantities for one (n, r) pair.

    ``lam`` and ``delta`` are NaN for r=0, where the plateau bound is zero
    and the majority bound is the recovery bound from all zeros.
    """

    n: int
    r: int
    lam: float
    delta: float
    plateau_center: float
    majority_uniform: float

    @classmethod
    def for_params(cls, n: int, r: int) -> "BoundSet":
        _check_params(n, r, min_r=0)
        if r == 0:
            return cls(n, 0, math.nan, math.nan, 0.0, majority_bound(n, 0))
        return cls(
            n,
            r,
            potential_base(n, r),
            drift_delta(n, r),
            plateau_bound(n, r, n // 2),
            majority_bound(n, r),
        )

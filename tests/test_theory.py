import math

import pytest

from plateaulab import theory
from plateaulab.core import Uniform
from plateaulab.oracle import expected_under_init, majority_hitting_by_level
from plateaulab.theory import (
    BoundSet,
    block_bound,
    drift_delta,
    majority_bound,
    majority_of_ones_bound,
    plateau_bound,
    potential,
    potential_base,
)


class TestPotentialBase:
    def test_r1_is_three_for_every_n(self):
        for n in (2, 4, 10, 100, 4096):
            assert potential_base(n, 1) == pytest.approx(3.0, rel=1e-15)

    def test_n4_r2(self):
        assert potential_base(4, 2) == pytest.approx(9.0, rel=1e-15)

    def test_r2_large_n_limit(self):
        assert potential_base(100, 2) == pytest.approx(612 / 388, rel=1e-14)
        assert potential_base(10**6, 2) == pytest.approx(1.5, abs=1e-5)

    def test_r0_undefined(self):
        with pytest.raises(ValueError):
            potential_base(4, 0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            potential_base(5, 1)
        with pytest.raises(ValueError):
            potential_base(4, 3)

    def test_greater_than_one_on_grid(self):
        for n in range(2, 514, 2):
            for r in range(1, n // 2 + 1):
                assert potential_base(n, r) > 1.0

    def test_denominator_exactly_n_at_range_ends(self):
        for n in range(2, 514, 2):
            for r in (1, n // 2):
                assert 3 * r * (n - 2 * (r - 1)) - 2 * n == n


class TestPotential:
    def test_center_value(self):
        lam = potential_base(10, 3)
        assert potential(10, 3, 5) == pytest.approx(lam**3 - 1, rel=1e-12)

    def test_zero_at_optimal_levels(self):
        assert potential(10, 3, 8) == 0.0
        assert potential(10, 3, 10) == 0.0

    def test_n4_r2_level3(self):
        assert potential(4, 2, 3) == pytest.approx(72.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            potential(10, 3, 4)
        with pytest.raises(ValueError):
            potential(10, 3, 11)


class TestPlateauBound:
    def test_n4_r1_center(self):
        # exact chain needs a single forced step from the balanced level
        assert plateau_bound(4, 1, 2) == pytest.approx(3.0, rel=1e-12)

    def test_n4_r2_center(self):
        assert plateau_bound(4, 2, 2) == pytest.approx(60.0, rel=1e-12)

    def test_zero_at_optimum_level(self):
        assert plateau_bound(4, 2, 4) == 0.0

    def test_r0_is_zero(self):
        assert plateau_bound(8, 0, 4) == 0.0


class TestMajorityBound:
    def test_n2_r1(self):
        assert majority_bound(2, 1) == pytest.approx(7.0, rel=1e-12)
        # exact uniform-init expectation of the two-bit chain is 2.5
        assert 2.5 <= majority_bound(2, 1)

    def test_r0_dominates_exact(self):
        # only the two-sided plateau is flat at r=0; the one-sided run still
        # has to reach n/2 ones (exact 17.2 at n=100)
        for n in (2, 8, 100, 1000):
            exact = expected_under_init(majority_hitting_by_level(n, 0), n, Uniform())
            assert 0.0 < exact <= majority_bound(n, 0)
        assert majority_bound(100, 0) == majority_of_ones_bound(100, 50)

    def test_block_bound_identity(self):
        for k in range(2, 40, 2):
            assert block_bound(k) == pytest.approx(6 + k / 2, rel=1e-15)
            assert majority_bound(k, 1) == pytest.approx(block_bound(k), rel=1e-12)

    def test_block_bound_validation(self):
        with pytest.raises(ValueError):
            block_bound(3)

    def test_r2_plateau_bound_constant_regime(self):
        # the crossing bound from the balanced level flattens out for fixed r;
        # the one-sided bound keeps its additive n(1 + ln r)/2 walk-back term
        values = [plateau_bound(n, 2, n // 2) for n in (100, 1000, 10000)]
        for v in values:
            assert abs(v - values[-1]) / values[-1] <= 0.10
        assert majority_bound(10000, 2) > 2 * majority_bound(100, 2)

    def test_overflow_degrades_to_inf(self):
        assert majority_bound(4000, 2000) == math.inf
        assert plateau_bound(4000, 2000, 2000) == math.inf


class TestOnesRecoveryBound:
    def test_d1_is_half_n(self):
        assert majority_of_ones_bound(2, 1) == pytest.approx(1.0)
        assert majority_of_ones_bound(100, 1) == pytest.approx(50.0)

    def test_n100_d50(self):
        assert majority_of_ones_bound(100, 50) == pytest.approx(
            50 * (1 + math.log(50)), rel=1e-12
        )

    def test_monotone_in_d(self):
        values = [majority_of_ones_bound(100, d) for d in range(1, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_d_validation(self):
        with pytest.raises(ValueError):
            majority_of_ones_bound(100, 0)
        with pytest.raises(ValueError):
            majority_of_ones_bound(100, 51)


class TestDriftDelta:
    def test_values(self):
        assert drift_delta(4, 2) == pytest.approx(4 / 3, rel=1e-12)
        for n in (2, 10, 256):
            assert drift_delta(n, 1) == pytest.approx(2 / 3, rel=1e-12)

    def test_never_exceeds_base_minus_one(self):
        for n in range(4, 130, 2):
            for r in range(1, n // 2 + 1):
                assert drift_delta(n, r) <= potential_base(n, r) - 1 + 1e-12

    def test_r0_rejected(self):
        with pytest.raises(ValueError):
            drift_delta(4, 0)


class TestBoundSet:
    def test_bundles_match_functions(self):
        b = BoundSet.for_params(12, 3)
        assert b.lam == potential_base(12, 3)
        assert b.delta == drift_delta(12, 3)
        assert b.plateau_center == plateau_bound(12, 3, 6)
        assert b.majority_uniform == majority_bound(12, 3)

    def test_r0_bundle(self):
        b = BoundSet.for_params(12, 0)
        assert math.isnan(b.lam)
        assert b.plateau_center == 0.0
        exact = expected_under_init(majority_hitting_by_level(12, 0), 12, Uniform())
        assert 0.0 < exact <= b.majority_uniform

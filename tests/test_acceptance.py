"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
Simulation-based checks use 3-standard-error bands around exact oracle
values; grid checks run every admissible parameter combination.
"""

import math
import time

import numpy as np
import pytest

from plateaulab import oracle, theory
from plateaulab.core import Uniform
from plateaulab.fitness import MajorityFitness
from plateaulab.harness import (
    ExperimentSpec,
    dilution_experiment,
    restart_experiment,
    sweep,
)
from plateaulab.oracle import (
    bd_hitting_times,
    compliance_check,
    drift_check,
    expected_under_init,
    kernel_hitting_times,
    majority_chain,
    majority_hitting_by_level,
    plateau_chain,
    rlsl_kernel,
)

GRID_N = range(4, 129, 2)


def report(number: int, elapsed: float, description: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.1f}s) - {description}")


def test_criterion_01_solver_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        n = 2 * int(rng.integers(1, 129))
        r = int(rng.integers(1, n // 2 + 1))
        chain = majority_chain(n, r)
        ladder_times = bd_hitting_times(chain)
        kernel = rlsl_kernel(n, 1, MajorityFitness(n, r).level_value)
        dense_times = kernel_hitting_times(kernel)
        size = chain.size
        diff = np.abs(dense_times[:size] - ladder_times)
        assert np.max(diff / np.maximum(ladder_times, 1.0)) <= 1e-8
        trans = [s for s in range(kernel.size) if s not in kernel.absorbing]
        A = np.eye(len(trans)) - kernel.matrix[np.ix_(trans, trans)]
        E = dense_times[trans]
        residual = float(np.max(np.abs(A @ E - 1.0)))
        assert residual <= 1e-9 * (1.0 + float(np.max(E)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, elapsed, "birth-death and dense solvers agree to 1e-8 on 50 random chains")


def test_criterion_02_hand_solved_anchors():
    start = time.perf_counter()
    majority_times = bd_hitting_times(majority_chain(2, 1))
    assert majority_times[1] == pytest.approx(3.0, abs=1e-12)
    uniform = expected_under_init(majority_hitting_by_level(2, 1), 2, Uniform())
    assert uniform == pytest.approx(2.5, abs=1e-12)
    plateau_times = bd_hitting_times(plateau_chain(4, 2))
    assert plateau_times[0] == pytest.approx(8.0, abs=1e-12)
    report(2, time.perf_counter() - start, "hand-solved chain anchors match to 1e-12")


def test_criterion_03_simulation_matches_oracle():
    start = time.perf_counter()
    runs = 10_000

    plateau_exact = float(bd_hitting_times(plateau_chain(100, 10))[0])
    (plateau_row,) = sweep(
        ExperimentSpec(
            function="plateau",
            n_values=(100,),
            ell_values=(1,),
            r=10,
            runs=runs,
            master_seed=20240803,
            init="ones=50",
        )
    )
    assert plateau_row.stats.censored == 0
    assert abs(plateau_row.stats.mean - plateau_exact) <= 3 * plateau_row.stats.stderr

    majority_exact = expected_under_init(
        majority_hitting_by_level(100, 8), 100, Uniform()
    )
    (majority_row,) = sweep(
        ExperimentSpec(
            function="majority",
            n_values=(100,),
            ell_values=(1,),
            r=8,
            runs=runs,
            master_seed=20240804,
            init="uniform",
        )
    )
    assert majority_row.stats.censored == 0
    assert abs(majority_row.stats.mean - majority_exact) <= 3 * majority_row.stats.stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(3, elapsed, "10^4-run means sit within 3 SE of the exact chain values")


def test_criterion_04_plateau_bound_dominates_exact():
    start = time.perf_counter()
    checked = 0
    for n in GRID_N:
        for r in range(1, n // 2 + 1):
            times = bd_hitting_times(plateau_chain(n, r))
            for m0 in range(n // 2, n // 2 + r + 1):
                bound = theory.plateau_bound(n, r, m0)
                if not math.isfinite(bound):
                    continue
                exact = times[m0 - n // 2]
                assert exact <= bound * (1 + 1e-12), (n, r, m0, exact, bound)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, elapsed, f"crossing bound dominates the exact time at {checked} grid points")


def test_criterion_05_majority_bound_dominates_uniform_exact():
    start = time.perf_counter()
    violations = []
    checked = 0
    for n in GRID_N:
        for r in range(0, n // 2 + 1):
            bound = theory.majority_bound(n, r)
            if not math.isfinite(bound):
                continue
            exact = expected_under_init(majority_hitting_by_level(n, r), n, Uniform())
            if not math.isfinite(exact):
                continue
            checked += 1
            if exact > bound * (1 + 1e-12):
                violations.append((n, r, exact, bound))
    for n, r, exact, bound in violations:
        print(
            f"ACCEPTANCE 5: bound exceeded at n={n}, r={r} "
            f"(exact {exact:.6g} > bound {bound:.6g}); the bound is only "
            "claimed for sufficiently large n, so a small-n excess is "
            "reported rather than hidden"
        )
    assert not [v for v in violations if v[0] >= 16], violations
    assert not violations
    elapsed = time.perf_counter() - start
    report(5, elapsed, f"uniform-init bound dominates the exact value at {checked} grid cells")


def test_criterion_06_exact_drift_floors():
    start = time.perf_counter()
    states = 0
    for n in GRID_N:
        for r in range(1, n // 2 + 1):
            rows = drift_check(n, r)
            lam = theory.potential_base(n, r)
            for row in rows:
                if math.isfinite(row.lower_bound):
                    assert row.rel_slack >= -1e-9, (n, r, row)
                    states += 1
            center = rows[0]
            assert center.m == n // 2
            if r >= 2:
                assert center.drift == lam - 1.0
                tight = rows[-1]
                assert tight.m == n // 2 + r - 1
                assert abs(tight.rel_slack) <= 1e-9, (n, r, tight)
            else:
                assert center.drift == pytest.approx(lam - 1.0, rel=1e-12)
    elapsed = time.perf_counter() - start
    report(6, elapsed, f"drift floors hold at {states} states; tight one level under the optimum")


def test_criterion_07_ones_recovery_bound():
    start = time.perf_counter()
    checked = 0
    for n in range(4, 201, 2):
        times = bd_hitting_times(majority_chain(n, 0))
        for d in range(1, n // 2 + 1):
            exact = times[n // 2 - d]
            assert exact <= theory.majority_of_ones_bound(n, d) * (1 + 1e-12), (n, d)
            checked += 1
    elapsed = time.perf_counter() - start
    report(7, elapsed, f"recovery bound n(1+ln d)/2 dominates the exact walk at {checked} points")


def test_criterion_08_restart_statistics():
    start = time.perf_counter()
    result = restart_experiment(100, 5, runs=10_000, master_seed=20240805)
    assert result.censored == 0
    assert abs(result.p0_hat - 0.5) <= 3 * result.p0_stderr, result
    assert result.mean_retries is not None
    assert abs(result.mean_retries - 2.0) <= 3 * result.retries_stderr, result
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, elapsed, "first-hit coin is fair and retries average 2 within 3 SE")


def test_criterion_09_compliance_checker():
    start = time.perf_counter()
    for n in range(1, 13):
        ok, violation = compliance_check(n, 1)
        assert ok and violation is None, n
    for n in range(2, 13):
        ok, violation = compliance_check(n, n)
        assert not ok and violation is not None, n
    report(9, time.perf_counter() - start, "single flips compliant, inversion non-compliant, n <= 12")


def test_criterion_10_dilution_identity():
    start = time.perf_counter()
    result = dilution_experiment(20, 10, runs=10_000, master_seed=20240806)
    assert result.censored == 0
    assert result.exact_block <= result.block_bound
    assert result.block_bound == 11.0
    assert abs(result.ratio - 1.0) <= 3 * result.ratio_stderr, result
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(10, elapsed, "block dilution ratio is 1 within 3 SE; block time under 6 + k/2")


def test_criterion_11_flip_count_sweep_shape():
    start = time.perf_counter()
    ells = (1, 2, 4, 10, 25, 50, 66, 75)
    rows = sweep(
        ExperimentSpec(
            function="majority",
            n_values=(100,),
            ell_values=ells,
            r=10,
            runs=1000,
            master_seed=20240807,
            init="uniform",
        )
    )
    stats = {row.ell: row.stats for row in rows}
    best_ell = min(ells, key=lambda e: stats[e].mean)
    assert best_ell >= 25, best_ell
    separation = stats[1].mean - stats[50].mean
    assert separation > 3 * math.hypot(stats[1].stderr, stats[50].stderr)
    for ell in ells:
        assert stats[ell].median <= stats[ell].mean, ell
        assert stats[ell].censored == 0
    elapsed = time.perf_counter() - start
    report(11, elapsed, f"mean minimized at ell={best_ell}; ell=50 beats ell=1 by 3 SE")


def test_criterion_12_constant_regime_for_r2():
    start = time.perf_counter()
    limit = 15.0
    for n in (100, 1000, 10_000):
        value = theory.plateau_bound(n, 2, n // 2)
        assert abs(value - limit) / limit <= 0.10, (n, value)
    report(12, time.perf_counter() - start, "r=2 center bound within 10% of the limit 15")

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plateaulab import oracle, theory
from plateaulab.core import FixedOnes, Point, Uniform, UniformNonOptimal, hypergeom_pmf
from plateaulab.fitness import MajorityFitness, OneMax, PlateauFitness, make_fitness
from plateaulab.oracle import (
    BAND_LIMIT,
    KernelChain,
    bd_hitting_times,
    compliance_check,
    drift_check,
    drift_check_ok,
    expected_under_init,
    kernel_hitting_times,
    majority_chain,
    majority_hitting_by_level,
    overlap_rows,
    plateau_chain,
    plateau_hitting_by_level,
    rlsl_kernel,
    trapped_level,
)


class TestChains:
    def test_plateau_chain_structure(self):
        chain = plateau_chain(6, 2)  # majority counts 3..5
        assert isinstance(chain, KernelChain)
        assert chain.width == 1 and chain.size == 3
        assert chain.band[0].tolist() == [0.0, 0.0, 1.0]
        assert chain.band[1, 2] == pytest.approx(2 / 6)
        assert chain.band[1, 0] == pytest.approx(4 / 6)
        assert chain.band[2].tolist() == [0.0, 1.0, 0.0]
        assert chain.absorbing == frozenset({2})

    def test_majority_chain_structure(self):
        chain = majority_chain(4, 1)
        assert isinstance(chain, KernelChain)
        assert chain.width == 1 and chain.size == 4
        assert chain.band[0, 2] == 1.0
        assert chain.band[2, 2] == pytest.approx(2 / 4)
        assert chain.band[2, 0] == pytest.approx(2 / 4)
        assert chain.absorbing == frozenset({3})

    def test_leftover_mass_is_the_self_loop(self):
        for chain in (majority_chain(10, 2), plateau_chain(10, 3)):
            down, stay, up = chain.band[:-1].T
            assert np.array_equal(stay, 1.0 - up - down)

    def test_invalid_probabilities_rejected(self):
        cases = [
            # a row that moves more than all of its mass
            ([[0.0, 0.3, 0.8], [0.0, 1.0, 0.0]], {1}, "sum to 1"),
            # a negative leftover on the diagonal
            ([[0.0, -0.5, 1.5], [0.0, 1.0, 0.0]], {1}, "nonnegative"),
            # a bottom level that leaks below the range
            ([[0.7, -0.4, 0.7], [0.0, 1.0, 0.0]], {1}, "past the level range"),
            ([[0.3, 0.0, 0.7], [0.0, 1.0, 0.0]], {1}, "past the level range"),
            # an absorbing level with outgoing mass, or outside the range
            ([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]], {1}, "unit self-loop"),
            ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], {2}, "out of range"),
            # a band that is not 2 * width + 1 columns wide
            ([[0.0, 1.0], [1.0, 0.0]], {1}, "columns"),
        ]
        for band, absorbing, match in cases:
            with pytest.raises(ValueError, match=match):
                KernelChain.from_band(np.array(band), absorbing)


class TestBirthDeathSolver:
    def test_forced_single_step(self):
        assert bd_hitting_times(plateau_chain(4, 1))[0] == pytest.approx(1.0, abs=1e-15)
        assert bd_hitting_times(plateau_chain(6, 1))[0] == pytest.approx(1.0, abs=1e-15)

    def test_hand_solved_plateau_n4_r2(self):
        times = bd_hitting_times(plateau_chain(4, 2))  # majority counts 2..4
        assert times[0] == pytest.approx(8.0, abs=1e-12)
        assert times[1] == pytest.approx(7.0, abs=1e-12)

    def test_hand_solved_majority_n2_r1(self):
        times = bd_hitting_times(majority_chain(2, 1))
        assert times[1] == pytest.approx(3.0, abs=1e-12)
        assert times[0] == pytest.approx(4.0, abs=1e-12)

    def test_absorbing_start_is_zero(self):
        assert bd_hitting_times(majority_chain(2, 1))[2] == 0.0

    def test_monotone_in_start_level(self):
        for n, r in ((10, 2), (50, 7), (128, 30)):
            times = bd_hitting_times(majority_chain(n, r))
            assert np.all(np.diff(times) <= 1e-9)

    def test_overflow_degrades_to_inf(self):
        times = bd_hitting_times(majority_chain(2048, 1024))
        assert math.isinf(times[0])

    def test_unreachable_absorption(self):
        band = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        chain = KernelChain.from_band(band, {2})
        with pytest.raises(ValueError, match="no absorbing state reachable from level 0"):
            bd_hitting_times(chain)

    @pytest.mark.parametrize("n", [2, 4, 16, 64, 128, 256])
    def test_same_object_cross_check(self, n):
        # either exact solver takes the same width-1 chain
        for r in sorted({0, 1, 2, n // 4, n // 2 - 1, n // 2} & set(range(n // 2 + 1))):
            chains = [majority_chain(n, r), rlsl_kernel(n, 1, MajorityFitness(n, r).level_value)]
            if r >= 1:
                chains.append(plateau_chain(n, r))
            for chain in chains:
                ladder = bd_hitting_times(chain)
                banded = kernel_hitting_times(chain)
                assert np.all(np.isfinite(ladder)), (n, r)
                assert np.max(np.abs(banded - ladder) / np.maximum(ladder, 1.0)) < 1e-8, (n, r)

    @pytest.mark.parametrize("n,r", [(2, 1), (10, 0), (64, 5), (256, 128)])
    def test_solves_ell1_kernel_directly(self, n, r):
        # the kernel's ell=1 overlap rows are the chain's (n - j)/n and j/n
        kernel = rlsl_kernel(n, 1, MajorityFitness(n, r).level_value)
        assert bd_hitting_times(kernel).tolist() == majority_hitting_by_level(n, r).tolist()

    def test_width_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="width-1"):
            bd_hitting_times(rlsl_kernel(8, 2, MajorityFitness(8, 1).level_value))
        with pytest.raises(ValueError, match="width-1"):
            bd_hitting_times(KernelChain.from_band(np.ones((3, 1)), frozenset({0, 1, 2})))

    def test_absorbing_set_must_be_one_top_block(self):
        # the two-sided plateau absorbs at both ends of the ones count
        two_sided = rlsl_kernel(8, 1, PlateauFitness(8, 2).level_value)
        assert two_sided.absorbing == frozenset({0, 1, 2, 6, 7, 8})
        with pytest.raises(ValueError, match="contiguous top block"):
            bd_hitting_times(two_sided)
        # a gap below the top level
        band = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="contiguous top block"):
            bd_hitting_times(KernelChain.from_band(band, {1, 3}))
        with pytest.raises(ValueError, match="contiguous top block"):
            bd_hitting_times(rlsl_kernel(4, 1, lambda j: 0, absorbing=()))


class TestKernel:
    def test_ell1_matches_birth_death_rows(self):
        n, r = 6, 2
        kernel = rlsl_kernel(n, 1, MajorityFitness(n, r).level_value)
        chain = majority_chain(n, r)
        hi = n // 2 + r
        assert np.array_equal(kernel.band[:hi, [0, 2]], chain.band[:hi, [0, 2]])
        for j in range(hi):
            assert kernel.matrix[j, j + 1] == pytest.approx((n - j) / n, abs=1e-12)
            if j:
                assert kernel.matrix[j, j - 1] == pytest.approx(j / n, abs=1e-12)

    def test_full_inversion_rows(self):
        kernel = rlsl_kernel(4, 4, lambda j: 0, absorbing=())
        for j in range(5):
            assert kernel.matrix[j, 4 - j] == pytest.approx(1.0, abs=1e-12)

    def test_hypergeometric_row_n4_ell2(self):
        kernel = rlsl_kernel(4, 2, lambda j: 0, absorbing=())
        assert kernel.matrix[2, 4] == pytest.approx(1 / 6, abs=1e-12)
        assert kernel.matrix[2, 0] == pytest.approx(1 / 6, abs=1e-12)
        assert kernel.matrix[2, 2] == pytest.approx(4 / 6, abs=1e-12)

    def test_rows_stochastic(self):
        kernel = rlsl_kernel(32, 7, MajorityFitness(32, 5).level_value)
        assert np.max(np.abs(kernel.matrix.sum(axis=1) - 1.0)) <= 1e-12
        for j in sorted(kernel.absorbing):
            assert kernel.matrix[j, j] == 1.0

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    @pytest.mark.parametrize("ell", [1, 2, 3, 10])
    def test_rows_sum_to_one_up_to_dense_limit(self, n, ell):
        kernel = rlsl_kernel(n, ell, MajorityFitness(n, 4).level_value)
        assert np.max(np.abs(kernel.matrix.sum(axis=1) - 1.0)) <= 1e-12

    def test_band_limit_checked_before_build(self):
        def unreachable(j):
            raise AssertionError("the fitness was read before the size check")

        assert (4096 + 1) * (2 * 4096 + 1) == BAND_LIMIT
        with pytest.raises(ValueError, match="band limit"):
            rlsl_kernel(10_000_000, 2, unreachable)
        with pytest.raises(ValueError, match="band limit"):
            rlsl_kernel(4097, 4097, unreachable)

    def test_rejected_mass_on_diagonal(self):
        # onemax levels: downward proposals are rejected
        kernel = rlsl_kernel(4, 1, lambda j: j)
        assert kernel.matrix[2, 1] == 0.0
        assert kernel.matrix[2, 2] == pytest.approx(0.5, abs=1e-12)
        assert kernel.matrix[2, 3] == pytest.approx(0.5, abs=1e-12)

    def test_level_view_requires_count_only_fitness(self):
        from plateaulab.fitness import NeutralityFitness

        with pytest.raises(NotImplementedError, match="ones count alone"):
            rlsl_kernel(8, 1, NeutralityFitness(OneMax(4), 2).level_value)


class TestKernelSolver:
    def test_two_state_geometric(self):
        for p in (0.5, 0.1):
            band = np.array([[0.0, 1 - p, p], [0.0, 1.0, 0.0]])
            kernel = KernelChain.from_band(band, frozenset({1}))
            assert kernel_hitting_times(kernel)[0] == pytest.approx(1 / p, rel=1e-12)

    def test_matches_hand_solution(self):
        kernel = rlsl_kernel(2, 1, MajorityFitness(2, 1).level_value)
        assert kernel_hitting_times(kernel)[1] == pytest.approx(3.0, rel=1e-12)

    def test_agreement_with_birth_death(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 2 * int(rng.integers(2, 65))
            r = int(rng.integers(1, n // 2 + 1))
            kernel = rlsl_kernel(n, 1, MajorityFitness(n, r).level_value)
            dense = kernel_hitting_times(kernel)
            ladder = majority_hitting_by_level(n, r)
            scale = np.maximum(ladder, 1.0)
            assert np.max(np.abs(dense - ladder) / scale) < 1e-8

    def test_plateau_kernel_matches_folded_chain(self):
        # ones-level dense solve with two-sided absorption must agree with
        # the majority-count ladder after folding j onto max(j, n - j)
        from plateaulab.fitness import PlateauFitness

        for n, r in ((8, 2), (20, 4), (50, 10)):
            kernel = rlsl_kernel(n, 1, PlateauFitness(n, r).level_value)
            dense = kernel_hitting_times(kernel)
            folded = plateau_hitting_by_level(n, r)
            scale = np.maximum(folded, 1.0)
            assert np.max(np.abs(dense - folded) / scale) < 1e-10

    # the ends of n, r = 1, and r = n/2, where only the ends are optimal
    @pytest.mark.parametrize(
        "n,r", [(2, 1), (4, 2), (8, 1), (8, 3), (20, 4), (50, 25), (1000, 31), (1000, 500)]
    )
    def test_plateau_fold_per_level(self, n, r):
        # count j reads the ladder at its majority count max(j, n - j), and
        # an optimal count reads 0.0
        times = bd_hitting_times(plateau_chain(n, r))
        reference = [
            times[max(j, n - j) - n // 2] if max(j, n - j) < n // 2 + r else 0.0
            for j in range(n + 1)
        ]
        folded = plateau_hitting_by_level(n, r)
        assert folded.dtype == np.float64
        assert folded.tobytes() == np.array(reference).tobytes()

    def test_singular_system_is_inf(self):
        # levels 0 and 1 swap for ever; level 2 absorbs
        band = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        kernel = KernelChain.from_band(band, frozenset({2}))
        assert kernel_hitting_times(kernel).tolist() == [math.inf, math.inf, 0.0]

    @pytest.mark.parametrize("ell", [1, 2, 9])
    def test_no_absorbing_level_is_inf_everywhere(self, ell):
        kernel = rlsl_kernel(9, ell, lambda j: 0, absorbing=())
        assert np.all(np.isposinf(kernel_hitting_times(kernel)))

    def test_underflowed_absorption_is_inf_not_singular(self):
        # 0 -> 1 -> 2 -> 3 (absorbing) reaches absorption, but leaving 2 for
        # 3 and 1 for 2 take 1e-200 each: level 0's leaving mass is their
        # product, which underflows to a zero pivot
        tiny = 1e-200
        band = np.array([[0.0, 0.0, 1.0], [1.0 - tiny, 0.0, tiny],
                         [1.0 - tiny, 0.0, tiny], [0.0, 1.0, 0.0]])
        times = kernel_hitting_times(KernelChain.from_band(band, frozenset({3})))
        assert times.tolist() == [math.inf, math.inf, math.inf, 0.0]

    def test_overflow_only_reaches_the_levels_that_lead_to_it(self):
        # levels 0-2 as above; level 4 absorbs into 5 and never meets them
        band = np.zeros((6, 3))
        band[:4] = [[0.0, 0.0, 1.0], [1.0 - 1e-200, 0.0, 1e-200],
                    [1.0 - 1e-200, 0.0, 1e-200], [0.0, 1.0, 0.0]]
        band[4] = [0.0, 0.5, 0.5]
        band[5] = [0.0, 1.0, 0.0]
        times = kernel_hitting_times(KernelChain.from_band(band, frozenset({3, 5})))
        assert times.tolist() == [math.inf, math.inf, math.inf, 0.0, 2.0, 0.0]

    # even levels 0 -> 2 -> 4 -> 6 (absorbing) overflow, interleaved with odd
    # levels 1 -> 3 -> 5 -> 7 (absorbing) whose expectations are 5, 4 and 1;
    # each odd level's window holds even levels it cannot reach, where a
    # 0 * inf once made it nan.  With a = 1e-160 level 0's expectation
    # overflows in the back-substitution; with t = 1e-310 level 2's expected
    # visits overflow in the elimination.  Width 8 runs the numpy
    # elimination, width 2 the Python-float one
    @pytest.mark.parametrize("width", [2, 8])
    @pytest.mark.parametrize(
        "even",
        [{0: {2: 1.0}, 2: {0: 1.0 - 1e-160, 4: 1e-160}, 4: {2: 1.0 - 1e-160, 6: 1e-160}},
         {0: {2: 1.0}, 2: {0: 1e-310, 4: 1.0}, 4: {2: 1.0, 6: 1e-310}}],
        ids=["back-substitution", "elimination"],
    )
    def test_overflow_leaves_an_interleaved_class_finite(self, width, even):
        moves = {**even, 1: {3: 1.0}, 3: {1: 0.5, 5: 0.5}, 5: {7: 1.0}, 6: {6: 1.0}, 7: {7: 1.0}}
        band = np.zeros((8, 2 * width + 1))
        for s, row in moves.items():
            for t, p in row.items():
                band[s, width + t - s] = p
        times = kernel_hitting_times(KernelChain.from_band(band, frozenset({6, 7})))
        assert times.tolist() == [math.inf, 5.0, math.inf, 4.0, math.inf, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("ell", [1, 2, 3, 10])
    def test_majority_expectation_past_the_float_range_is_inf(self, ell):
        # every level of both parity classes reaches absorption; the leaving
        # mass of the lowest levels underflows, and the ell=1 ladder overflows
        n, r = 2048, 1000
        times = kernel_hitting_times(rlsl_kernel(n, ell, MajorityFitness(n, r).level_value))
        assert np.all(np.isinf(times[: n // 2 + r])) and not times[n // 2 + r :].any()
        assert np.all(np.isinf(majority_hitting_by_level(n, r)[: n // 2 + r]))

    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            KernelChain.from_band(np.array([[0.0, 0.5, 0.4], [0.0, 1.0, 0.0]]), frozenset({1}))

    def test_size_limit(self):
        # n = 20000 lies past every n <= 4096 the band limit was sized for,
        # at an ell that keeps the band under it
        n, r = 20_000, 4
        kernel = rlsl_kernel(n, 1, MajorityFitness(n, r).level_value)
        times = kernel_hitting_times(kernel)
        ladder = majority_hitting_by_level(n, r)
        assert np.max(np.abs(times - ladder) / np.maximum(ladder, 1.0)) < 1e-8
        small = KernelChain.from_band(np.ones((2, 1)), frozenset({0, 1}))
        assert kernel_hitting_times(small).tolist() == [0.0, 0.0]


def log_binomial(n, k):
    """log C(n, k) via lgamma, the float operations of the uniform weights."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def dense_kernel(matrix, absorbing):
    """The chain on the band that a dense matrix's nonzeros span."""
    P = np.asarray(matrix, dtype=float)
    rows, cols = np.nonzero(P)
    width = int(np.max(np.abs(cols - rows), initial=0))
    band = np.zeros((len(P), 2 * width + 1))
    band[rows, width + cols - rows] = P[rows, cols]
    return KernelChain.from_band(band, absorbing)


def dense_reference_build(n, ell, fitness_by_level, absorbing=None):
    """The kernel as the dense builder wrote it: one += per overlap, in order.

    By default the argmax levels are absorbing, as in ``rlsl_kernel``."""
    values = [fitness_by_level(j) for j in range(n + 1)]
    if absorbing is None:
        top = max(values)
        absorbing = {j for j, v in enumerate(values) if v == top}
    P = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        if j in absorbing:
            P[j, j] = 1.0
            continue
        for a in range(max(0, ell - (n - j)), min(j, ell) + 1):
            p = math.comb(j, a) * math.comb(n - j, ell - a) / math.comb(n, ell)
            j2 = j + ell - 2 * a
            P[j, j2 if values[j2] >= values[j] else j] += p
    return P


def dense_reference_times(kernel, skip=frozenset()):
    """numpy.linalg.solve on I - Q of the dense matrix over the transient
    levels not in ``skip``; zero on the other levels."""
    P = kernel.matrix
    trans = [s for s in range(kernel.size) if s not in kernel.absorbing and s not in skip]
    out = np.zeros(kernel.size)
    if trans:
        A = np.eye(len(trans)) - P[np.ix_(trans, trans)]
        out[trans] = np.linalg.solve(A, np.ones(len(trans)))
    return out


def assert_matches_reference(kernel, infinite=frozenset()):
    """The solver reads +inf on exactly the ``infinite`` levels, and on the
    other transient levels agrees with the dense solve of their block."""
    times = kernel_hitting_times(kernel)
    assert np.isposinf(times).tolist() == [s in infinite for s in range(kernel.size)]
    ref = dense_reference_times(kernel, infinite)
    trans = [s for s in range(kernel.size) if s not in kernel.absorbing and s not in infinite]
    assert np.all(times[sorted(kernel.absorbing)] == 0.0)
    assert np.max(np.abs(times[trans] - ref[trans]) / ref[trans], initial=0.0) <= 1e-12


GRID = [
    (function, n, ell)
    for function in ("majority", "plateau")
    for n in (2, 6, 64, 256, 1024)
    for ell in sorted({1, 2, 3, 10, n // 2, n})
    if ell <= n
]


class TestBandedKernel:
    def test_dense_input_keeps_nonzero_band(self):
        matrix = np.array(
            [[0.5, 0.5, 0.0, 0.0], [0.25, 0.5, 0.25, 0.0], [0.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 1.0]]
        )
        kernel = dense_kernel(matrix, frozenset({2, 3}))
        assert kernel.width == 1 and kernel.band.shape == (4, 3)
        assert kernel.band[1].tolist() == [0.25, 0.5, 0.25]
        assert kernel.band[0, 0] == 0.0 and kernel.band[3, 2] == 0.0
        assert np.array_equal(kernel.matrix, matrix)
        assert dense_kernel(np.eye(3), frozenset({0, 1, 2})).width == 0

    def test_rlsl_kernel_band_has_half_width_ell(self):
        kernel = rlsl_kernel(40, 7, MajorityFitness(40, 3).level_value)
        assert kernel.width == 7 and kernel.band.shape == (41, 15)

    @pytest.mark.parametrize("n", [2, 7, 64, 257])
    def test_matrix_bit_identical_to_dense_build(self, n):
        # non-monotone levels with ties, where rejections fold into the
        # diagonal between accepted moves
        rng = random.Random(n)
        bumpy = [rng.choice((-1, 0, 1, 2, 2.5)) for _ in range(n + 1)]
        fits = [OneMax(n).level_value, bumpy.__getitem__]
        if n % 2 == 0:
            fits.append(MajorityFitness(n, 1).level_value)
        # the argmax levels, none, one inner level, and both ends
        absorbing_sets = [None, (), {n // 2}, {0, n}]
        for by_level in fits:
            for ell in sorted({ell for ell in (1, 2, 3, n // 2, n) if 1 <= ell <= n}):
                for absorbing in absorbing_sets:
                    built = rlsl_kernel(n, ell, by_level, absorbing).matrix
                    reference = dense_reference_build(n, ell, by_level, absorbing)
                    assert built.tobytes() == reference.tobytes(), (ell, absorbing)

    def test_band_entries_past_the_range_rejected(self):
        band = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="past the level range"):
            KernelChain.from_band(band, frozenset({1}))
        with pytest.raises(ValueError, match="2 \\* width \\+ 1"):
            KernelChain.from_band(np.ones((2, 2)) / 2, frozenset())

    def test_entries_past_the_range_rejected_in_every_edge_row(self):
        # width 2 over five levels: rows 0, 1 reach below level 0 and rows
        # 3, 4 past level 4; over two levels width 3 reaches past both ends
        cases = [((5, 5), row, col) for row, col in
                 [(0, 0), (0, 1), (1, 0), (3, 4), (4, 3), (4, 4)]]
        cases += [((2, 7), 0, 2), ((2, 7), 0, 5), ((2, 7), 1, 1), ((2, 7), 1, 6)]
        for shape, row, col in cases:
            band = np.zeros(shape)
            width = shape[1] // 2
            band[:, width] = 1.0
            band[row, width], band[row, col] = 0.5, 0.5
            with pytest.raises(ValueError, match="past the level range"):
                KernelChain.from_band(band, frozenset())

    def test_chain_build_peak_is_near_its_band(self):
        tracemalloc.start()
        try:
            chain = majority_chain(10**6, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * chain.band.nbytes

    @pytest.mark.parametrize("n,ell", [(64, 3), (256, 10), (300, 2)])
    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_kernel_blocks_bit_identical_to_one_block(self, n, ell, rows, monkeypatch):
        rng = random.Random(n)
        bumpy = [rng.choice((-1, 0, 1, 2, 2.5)) for _ in range(n + 1)]
        fits = [MajorityFitness(n, 4).level_value, PlateauFitness(n, 6).level_value,
                bumpy.__getitem__]
        monkeypatch.setattr(oracle, "_SETUP_ROWS", n + 1)
        whole = [rlsl_kernel(n, ell, fit).band for fit in fits]
        monkeypatch.setattr(oracle, "_SETUP_ROWS", rows)
        for fit, band in zip(fits, whole):
            assert rlsl_kernel(n, ell, fit).band.tobytes() == band.tobytes()

    def test_kernel_build_peak_is_near_its_band(self):
        # the build's transients are _SETUP_ROWS rows each; set up over
        # every level at once, the peak was 2.3 times the band
        fit = MajorityFitness(4096, 40).level_value
        tracemalloc.start()
        try:
            kernel = rlsl_kernel(4096, 20, fit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * kernel.band.nbytes

    def test_band_validation_rules(self):
        with pytest.raises(ValueError, match="sum to 1"):
            KernelChain.from_band(np.array([[0.0, 0.5, 0.4], [0.0, 1.0, 0.0]]), frozenset())
        with pytest.raises(ValueError, match="nonnegative"):
            KernelChain.from_band(np.array([[0.0, 1.5, -0.5], [0.0, 1.0, 0.0]]), frozenset())
        with pytest.raises(ValueError, match="unit self-loop"):
            KernelChain.from_band(np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]), frozenset({0}))

    def test_exact_path_memory_is_banded(self):
        # the dense kernel alone would be 8 * 4097**2 bytes, about 134 MB
        fit = MajorityFitness(4096, 4).level_value
        tracemalloc.start()
        try:
            times = kernel_hitting_times(rlsl_kernel(4096, 10, fit))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert times[0] > 0.0
        assert peak < 16 * 2**20

    def test_solve_memory_is_about_one_transient_band(self):
        # the setup once held six band-sized arrays next to the transient
        # band (the kernel rows, their levels and transient indices, a
        # masked copy and the nonzero pairs): about 8 bands at its peak
        n, ell = 20_000, 20
        kernel = rlsl_kernel(n, ell, MajorityFitness(n, 4).level_value)
        band_bytes = (n + 1 - len(kernel.absorbing)) * (2 * ell + 1) * 8
        tracemalloc.start()
        try:
            times = kernel_hitting_times(kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(times)) and times[0] > 0.0
        assert peak < 3 * band_bytes


def per_row_overlaps(n, ell, levels):
    """The padded overlap matrix built one ``hypergeom_pmf`` row at a time."""
    out = np.zeros((len(levels), ell + 1))
    for i, j in enumerate(levels):
        lo = max(0, ell - (n - j))
        row = hypergeom_pmf(n, j, ell)
        out[i, lo : lo + len(row)] = row
    return out


@st.composite
def overlap_cases(draw):
    n = draw(st.integers(1, 300))
    ell = draw(st.integers(1, n))
    # fewer than 16 levels are built row by row, 16 and more from columns
    levels = draw(st.lists(st.integers(0, n), min_size=1, max_size=60))
    return n, ell, levels


class CountingPmf:
    """``hypergeom_pmf`` that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, n, j, ell):
        self.calls += 1
        return hypergeom_pmf(n, j, ell)


# the midpoints a bare cast misses are those of a 64-bit significand
x87_long_double = pytest.mark.skipif(
    oracle._LONG_MANT != 63, reason="needs the x87 80-bit long double"
)


class TestOverlapRows:
    @settings(max_examples=150, deadline=None)
    @given(overlap_cases())
    # both ends, ell > n/2, ell = n, and the int64 edge at n = 256, each
    # with enough levels for the binomial columns
    @example((300, 300, [0, 300, 150] * 6))
    @example((9, 7, [0, 9, 4, 4, 1] * 4))
    @example((1, 1, [1, 0] * 8))
    @example((256, 11, [0, 256, 128, 3] * 4))
    @example((256, 12, [256, 0, 127] * 6))
    # C(100, 95) fits in int64 but the columns pass C(70, 35), which does not
    @example((100, 95, list(range(70, 101))))
    def test_bit_identical_to_per_row_pmf(self, case):
        n, ell, levels = case
        rows = overlap_rows(n, ell, levels)
        assert rows.dtype == np.float64 and rows.shape == (len(levels), ell + 1)
        assert rows.tobytes() == per_row_overlaps(n, ell, levels).tobytes()

    @x87_long_double
    @pytest.mark.parametrize("n,ell", [(256, 10), (1024, 7), (100, 17)])
    def test_midpoint_fixup_fires(self, n, ell):
        levels = list(range(n + 1))
        rows = overlap_rows(n, ell, levels)
        assert rows.tobytes() == per_row_overlaps(n, ell, levels).tobytes()
        # the same quotients rounded twice, to long double and then to float64
        counts = np.array(
            [[math.comb(j, a) * math.comb(n - j, ell - a) for a in range(ell + 1)]
             for j in levels],
            dtype=np.int64,
        )
        bare = (counts.astype(np.longdouble) / np.int64(math.comb(n, ell))).astype(float)
        assert np.count_nonzero(bare != rows) > 0

    @x87_long_double
    def test_int64_guard_edge(self, monkeypatch):
        assert math.comb(256, 11) < 2**63 <= math.comb(256, 12)
        levels = list(range(257))
        for ell, calls in ((11, 0), (12, 257)):
            pmf = CountingPmf()
            monkeypatch.setattr(oracle, "hypergeom_pmf", pmf)
            rows = overlap_rows(256, ell, levels)
            assert pmf.calls == calls
            assert rows.tobytes() == per_row_overlaps(256, ell, levels).tobytes()

    @x87_long_double
    def test_few_levels_are_built_row_by_row(self, monkeypatch):
        for count, calls in ((15, 15), (16, 0)):
            levels = list(range(120, 120 + count))
            pmf = CountingPmf()
            monkeypatch.setattr(oracle, "hypergeom_pmf", pmf)
            rows = overlap_rows(256, 10, levels)
            assert pmf.calls == calls
            assert rows.tobytes() == per_row_overlaps(256, 10, levels).tobytes()

    @pytest.mark.parametrize("n,ell", [(256, 10), (100, 17), (4096, 3), (37, 30)])
    def test_forced_fallback_gives_the_same_bits(self, n, ell, monkeypatch):
        levels = list(range(0, n + 1, max(1, n // 300)))
        table = overlap_rows(n, ell, levels)
        pmf = CountingPmf()
        monkeypatch.setattr(oracle, "hypergeom_pmf", pmf)
        monkeypatch.setattr(oracle, "_LONG_MANT", 52)
        assert overlap_rows(n, ell, levels).tobytes() == table.tobytes()
        assert pmf.calls == len(levels)


class TestBandedSolver:
    @pytest.mark.parametrize("function,n,ell", GRID)
    def test_matches_dense_reference(self, function, n, ell):
        by_level = make_fitness(function, n, r=min(4, n // 2)).level_value
        kernel = rlsl_kernel(n, ell, by_level)
        # a level expects +inf exactly when a trap is reachable from it; no
        # other level has a band entry into those, so the rest is a system
        # of its own
        if trapped_level(n, ell, by_level, range(n + 1)) is None:
            infinite = frozenset()
        else:
            infinite = frozenset(
                j for j in range(n + 1) if trapped_level(n, ell, by_level, [j]) is not None
            )
        assert_matches_reference(kernel, infinite)

    @pytest.mark.parametrize("width", [1, 2, 11])
    def test_hand_built_non_contiguous_absorbing(self, width):
        # random band of the given half-width (width 11 is full: 12 levels)
        rng = np.random.default_rng(width)
        size, absorbing = 12, frozenset({1, 4, 5, 9})
        matrix = np.zeros((size, size))
        for s in range(size):
            if s in absorbing:
                matrix[s, s] = 1.0
                continue
            lo, hi = max(0, s - width), min(size, s + width + 1)
            row = rng.random(hi - lo)
            matrix[s, lo:hi] = row / row.sum()
        kernel = dense_kernel(matrix, absorbing)
        assert kernel.width == width
        assert_matches_reference(kernel)

    @pytest.mark.parametrize("width", range(1, oracle._LIST_WIDTH + 1))
    @pytest.mark.parametrize("block", [3, 4096])
    def test_list_elimination_matches_views_bit_for_bit(self, width, block, monkeypatch):
        # small widths eliminate on Python floats, in blocks of levels; on
        # numpy views the same kernel must give the same bits
        rng = np.random.default_rng(width)
        size = 40
        absorbing = frozenset(int(s) for s in rng.choice(size, 4, replace=False))
        band = np.zeros((size, 2 * width + 1))
        for s in range(size):
            if s in absorbing:
                band[s, width] = 1.0
                continue
            lo, hi = max(0, s - width), min(size, s + width + 1)
            # entries over six orders of magnitude, so a changed order of
            # operations changes bits
            row = rng.random(hi - lo) * 10.0 ** rng.integers(-6, 1, hi - lo)
            band[s, width + lo - s : width + hi - s] = row / row.sum()
        kernel = KernelChain.from_band(band, absorbing)
        monkeypatch.setattr(oracle, "_SETUP_ROWS", block)
        lists = kernel_hitting_times(kernel)
        monkeypatch.setattr(oracle, "_LIST_WIDTH", -1)
        assert lists.tobytes() == kernel_hitting_times(kernel).tobytes()

    def test_numpy_sums_short_rows_left_to_right(self):
        # the list elimination sums pivot rows this way up to _LIST_WIDTH
        rng = np.random.default_rng(5)
        for k in range(1, oracle._LIST_WIDTH + 1):
            for _ in range(200):
                row = rng.random(k) * 10.0 ** rng.integers(-8, 9, k)
                total = 0.0
                for x in row.tolist():
                    total += x
                assert np.add.reduce(row) == total, row

    def test_hand_built_sparse_far_jumps(self):
        # only the outermost diagonals are occupied; transients 0, 2, 3, 5
        matrix = np.zeros((6, 6))
        matrix[0, [0, 3]] = [0.5, 0.5]
        matrix[2, [1, 5]] = [0.9, 0.1]
        matrix[3, [0, 4]] = [0.7, 0.3]
        matrix[5, [2]] = [1.0]
        matrix[1, 1] = matrix[4, 4] = 1.0
        kernel = dense_kernel(matrix, frozenset({1, 4}))
        assert kernel.width == 3
        assert_matches_reference(kernel)


def exact_hitting_times(kernel):
    """E of (I - Q) E = 1 in rational arithmetic on the exact values of the
    kernel's float band: each entry the rational it stores, and each
    diagonal entry of I - Q the exact leaving mass of its row, as the GTH
    pivot takes it.  A level that can reach one with no path to absorption
    gets None."""
    size, w = kernel.size, kernel.width
    band = kernel.band.tolist()
    moves = {
        s: [s + d - w for d, p in enumerate(row) if p and d != w] for s, row in enumerate(band)
    }
    # backward searches: the levels that can reach absorption, then the
    # levels that can reach one that cannot
    into = {s: [] for s in range(size)}
    for s, targets in moves.items():
        for t in targets:
            into[t].append(s)

    def reaching(start):
        found, todo = set(start), list(start)
        while todo:
            for s in into[todo.pop()]:
                if s not in found and s not in kernel.absorbing:
                    found.add(s)
                    todo.append(s)
        return found

    doomed = reaching(set(range(size)) - reaching(kernel.absorbing))
    levels = [s for s in range(size) if s not in kernel.absorbing and s not in doomed]
    rows, rhs = {}, {}
    for s in levels:
        rows[s] = {s: sum(Fraction(p) for d, p in enumerate(band[s]) if d != w)}
        for t in moves[s]:
            if t not in kernel.absorbing:
                rows[s][t] = -Fraction(band[s][t - s + w])
        rhs[s] = Fraction(1)
    # Gaussian elimination in level order, within the band, then back
    # substitution
    for k in levels:
        pivot = rows[k]
        for i in range(k + 1, min(size, k + w + 1)):
            f = rows[i].pop(k, 0) if i in rows else 0
            if f:
                f /= pivot[k]
                for j, v in pivot.items():
                    if j > k:
                        rows[i][j] = rows[i].get(j, 0) - f * v
                rhs[i] -= f * rhs[k]
    E = {}
    for k in reversed(levels):
        E[k] = (rhs[k] - sum(v * E[j] for j, v in rows[k].items() if j > k)) / rows[k][k]
    return [0 if s in kernel.absorbing else E.get(s) for s in range(size)]


def assert_exact(E, exact, tol):
    for got, want in zip(E.tolist(), exact):
        if want is None:
            assert got == math.inf
        elif want == 0:
            assert got == 0.0
        else:
            assert abs(Fraction(got) - want) / want <= tol


class TestExactReference:
    """The float solvers against exact rational solves of the same bands:
    the residual contract bounds (I - Q) E - 1, this the error in E."""

    @pytest.mark.parametrize("n", [8, 13, 20, 31, 40])
    def test_kernel_solver_matches_exact_elimination(self, n):
        # plateau n=40, r=19, ell=3 (E = 1.3e10) was the worst at 1.8e-15
        fits = [OneMax(n)]
        if n % 2 == 0:
            for r in sorted({1, 2, n // 4, n // 2 - 1, n // 2}):
                fits += [MajorityFitness(n, r), PlateauFitness(n, r)]
        for fit in fits:
            for ell in sorted({1, 2, 3, 5, n // 2, n - 1, n}):
                kernel = rlsl_kernel(n, ell, fit.level_value)
                assert_exact(kernel_hitting_times(kernel), exact_hitting_times(kernel), 1e-13)

    @pytest.mark.parametrize("chain", [majority_chain, plateau_chain])
    def test_width_one_solvers_match_exact_elimination(self, chain):
        for n in range(2, 81, 2):
            for r in sorted({1, 2, n // 4, n // 2} & set(range(1, n // 2 + 1))):
                kernel = chain(n, r)
                exact = exact_hitting_times(kernel)
                assert_exact(bd_hitting_times(kernel), exact, 1e-13)
                assert_exact(kernel_hitting_times(kernel), exact, 1e-13)


class TestTrappedLevel:
    def test_complement_swap_traps_the_balanced_band(self):
        by_level = MajorityFitness(100, 10).level_value
        level = trapped_level(100, 100, by_level, range(101))
        assert 41 <= level <= 59
        assert trapped_level(100, 100, by_level, [30]) is None

    def test_onemax_stuck_one_below_the_top(self):
        by_level = OneMax(10).level_value
        assert trapped_level(10, 2, by_level, range(11)) == 9
        # even starts keep even parity under 2-bit flips and reach 10
        assert trapped_level(10, 2, by_level, [0]) is None
        assert trapped_level(7, 7, OneMax(7).level_value, range(8)) is not None
        assert trapped_level(10, 1, by_level, range(11)) is None

    def test_rejected_moves_do_not_count(self):
        # level 0 is stuck, but from level 2 only the rejected move leads there
        values = [1, 0, 2, 3, 4]
        assert trapped_level(4, 1, values.__getitem__, [2]) is None
        assert trapped_level(4, 1, values.__getitem__, [1]) == 0

    def test_agrees_with_solver_singularity(self):
        for n in (2, 4, 6, 9, 12):
            fits = [OneMax(n)]
            if n % 2 == 0:
                fits += [MajorityFitness(n, r) for r in range(n // 2 + 1)]
                fits += [PlateauFitness(n, r) for r in range(1, n // 2 + 1)]
            for fit in fits:
                by_level = fit.level_value
                for ell in range(1, n + 1):
                    # a level expects +inf exactly when it can reach a trap
                    times = kernel_hitting_times(rlsl_kernel(n, ell, by_level))
                    trapped = [
                        trapped_level(n, ell, by_level, [j]) is not None for j in range(n + 1)
                    ]
                    assert np.isposinf(times).tolist() == trapped, (fit, ell)


class TestHittingByLevel:
    def test_plateau_by_level_symmetry(self):
        levels = plateau_hitting_by_level(8, 2)
        assert np.allclose(levels, levels[::-1])
        assert levels[4] == bd_hitting_times(plateau_chain(8, 2))[0]
        assert levels[0] == 0.0  # eight zeros is already an optimum

    def test_majority_by_level_tail_zeros(self):
        levels = majority_hitting_by_level(6, 1)
        assert levels[4] == 0.0 and levels[6] == 0.0
        assert levels[3] > 0.0

    @pytest.mark.parametrize("n,r", [(8, 2), (20, 1), (64, 10)])
    def test_exact_levels_picks_the_solver(self, n, r):
        # single flips climb the ladders; every other flip size solves the kernel
        majority, plateau = MajorityFitness(n, r), PlateauFitness(n, r)
        assert oracle.exact_levels(majority, 1).tobytes() == (
            majority_hitting_by_level(n, r).tobytes()
        )
        assert oracle.exact_levels(plateau, 1).tobytes() == (
            plateau_hitting_by_level(n, r).tobytes()
        )
        for fit in (majority, plateau, OneMax(n)):
            kernel = rlsl_kernel(n, 3, fit.level_value)
            assert oracle.exact_levels(fit, 3).tobytes() == (
                kernel_hitting_times(kernel).tobytes()
            )

    @pytest.mark.parametrize("ell", [1, 2, 7])
    def test_exact_levels_constant_plateau_is_zero(self, monkeypatch, ell):
        # at r = 0 every level is optimal, so every start takes 0 steps,
        # and no kernel is built to say so
        def no_kernel(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(oracle, "rlsl_kernel", no_kernel)
        assert oracle.exact_levels(PlateauFitness(8, 0), ell).tolist() == [0.0] * 9


class TestExpectedUnderInit:
    def test_uniform_n2_r1(self):
        levels = majority_hitting_by_level(2, 1)
        assert expected_under_init(levels, 2, Uniform()) == pytest.approx(2.5, abs=1e-12)

    def test_fixed_ones_at_absorbing(self):
        levels = majority_hitting_by_level(10, 2)
        assert expected_under_init(levels, 10, FixedOnes(7)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 63, 1000, 10**5])
    def test_uniform_equals_per_level_log_binomial_weights(self, n):
        levels = np.sqrt(np.arange(n + 1, dtype=float)) + 1.0
        log_half = n * math.log(2.0)
        weights = np.array(
            [math.exp(log_binomial(n, j) - log_half) for j in range(n + 1)]
        )
        mask = weights > 0.0
        expected = float(np.dot(weights[mask], levels[mask]))
        assert expected_under_init(levels, n, Uniform()) == expected

    def test_windowed_weights_equal_the_full_list_form(self):
        # every weight outside |j - n/2| <= isqrt(373 n) + 2 underflows, so
        # evaluating only that window changes no bit.  The reference
        # evaluates all n + 1 weights in two list comprehensions: lgamma at
        # every count, then exp at every level.  Majority needs an even n,
        # so odd n renormalise over OneMax's non-optimal levels
        def expected(weights, levels):
            mask = weights > 0.0
            return float(np.dot(weights[mask], levels[mask]))

        rng = np.random.default_rng(36)
        for n in [*range(1, 2001), 10**5, 10**6]:
            log_half = n * math.log(2.0)
            lg = [math.lgamma(i) for i in range(1, n + 2)]
            top = lg[n]
            weights = np.array(
                [math.exp(top - lg[j] - lg[n - j] - log_half) for j in range(n + 1)]
            )
            levels = rng.random(n + 1) * 1000.0
            assert expected_under_init(levels, n, Uniform()) == expected(weights, levels), n
            if n > 2000:
                continue
            fit = MajorityFitness(n, n // 8) if n % 2 == 0 else OneMax(n)
            weights[fit.optimal_levels] = 0.0
            weights /= weights.sum()
            got = expected_under_init(levels, n, UniformNonOptimal(fit))
            assert got == expected(weights, levels), n

    def test_point_takes_its_ones_count(self):
        levels = majority_hitting_by_level(10, 2)
        assert expected_under_init(levels, 10, Point("0110100001")) == levels[4]
        with pytest.raises(ValueError, match="length 9"):
            expected_under_init(levels, 10, Point("011010000"))

    @pytest.mark.parametrize("fit", [MajorityFitness(20, 2), PlateauFitness(30, 4)])
    def test_nonoptimal_renormalises_over_nonoptimal_levels(self, fit):
        n = fit.n
        levels = np.sqrt(np.arange(n + 1, dtype=float)) + 1.0
        weights = np.array(
            [0.0 if opt else math.comb(n, j) for j, opt in enumerate(fit.optimal_levels)]
        )
        expected = float(np.dot(weights / weights.sum(), levels))
        got = expected_under_init(levels, n, UniformNonOptimal(fit))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_nonoptimal_averages_the_uniform_value_over_nonoptimal_mass(self):
        # optimal levels take 0 steps, so the uniform expectation is the
        # non-optimal one times the non-optimal mass
        fit = MajorityFitness(40, 3)
        levels = majority_hitting_by_level(40, 3)
        mass = sum(math.comb(40, j) for j in range(40 + 1) if not fit.optimal_levels[j]) / 2**40
        nonopt = expected_under_init(levels, 40, UniformNonOptimal(fit))
        uniform = expected_under_init(levels, 40, Uniform())
        assert nonopt * mass == pytest.approx(uniform, rel=1e-12)

    def test_nonoptimal_needs_a_nonoptimal_level_of_the_same_length(self):
        with pytest.raises(ValueError, match="every level is optimal"):
            expected_under_init(np.zeros(9), 8, UniformNonOptimal(PlateauFitness(8, 0)))
        with pytest.raises(ValueError, match="length 10"):
            expected_under_init(np.ones(13), 12, UniformNonOptimal(MajorityFitness(10, 2)))

    def test_binomial_weights_normalized(self):
        for n in (10, 100, 300):
            total = sum(
                math.exp(log_binomial(n, j) - n * math.log(2)) for j in range(n + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestDriftCheck:
    def test_n4_r2_exact_values(self):
        rows = {row.m: row for row in drift_check(4, 2)}
        assert rows[2].drift == pytest.approx(8.0, abs=1e-12)
        assert rows[2].lower_bound == pytest.approx(8.0, abs=1e-12)
        assert rows[3].drift == pytest.approx(12.0, rel=1e-12)
        assert rows[3].lower_bound == pytest.approx(12.0, rel=1e-12)

    def test_center_drift_is_base_minus_one(self):
        for n, r in ((10, 3), (50, 10), (128, 64)):
            rows = drift_check(n, r)
            lam = theory.potential_base(n, r)
            assert rows[0].m == n // 2
            assert rows[0].drift == pytest.approx(lam - 1, rel=1e-12)

    def test_tight_one_below_optimum(self):
        for n, r in ((10, 3), (64, 20), (128, 40)):
            top_row = drift_check(n, r)[-1]
            assert top_row.m == n // 2 + r - 1
            assert abs(top_row.rel_slack) < 1e-9

    def test_slack_nonnegative_sample(self):
        for n in (8, 32, 96):
            for r in range(1, n // 2 + 1):
                assert drift_check_ok(drift_check(n, r))


class TestCompliance:
    def test_single_flip_compliant_up_to_12(self):
        for n in range(1, 13):
            ok, violation = compliance_check(n, 1)
            assert ok and violation is None

    def test_inversion_non_compliant(self):
        for n in range(2, 13):
            ok, violation = compliance_check(n, n)
            assert not ok
            low, high, threshold = violation
            assert high - low == 2

    def test_ell2_n4_recorded(self):
        # from 0 ones a 2-flip always lands on 2; from 2 ones it stays at 2
        # only with probability 4/6, so the higher start is less likely to
        # reach level 2: non-compliant
        ok, violation = compliance_check(4, 2)
        assert not ok
        assert violation == (0, 2, 1)

    def test_exhaustive_limit(self):
        # the scan compares (n + 1)**2 pairs of a level and a threshold
        assert 5793**2 <= BAND_LIMIT < 5794**2
        with pytest.raises(ValueError, match=f"exceed the band limit {BAND_LIMIT}"):
            compliance_check(5793, 1)

    @pytest.mark.parametrize("n", [1000, 4096])
    def test_single_flip_compliant_at_large_n(self, n):
        assert compliance_check(n, 1) == (True, None)

    @staticmethod
    def reference(n, ell):
        # per-level math.comb pmfs, reversed cumsum, first violation in scan order
        survival = np.zeros((n + 1, n + 2))
        for j in range(n + 1):
            pmf = np.zeros(n + 1)
            for a in range(max(0, ell - (n - j)), min(j, ell) + 1):
                pmf[j + ell - 2 * a] += (
                    math.comb(j, a) * math.comb(n - j, ell - a) / math.comb(n, ell)
                )
            survival[j, :-1] = pmf[::-1].cumsum()[::-1]
        for j in range(n - 1):
            for i in range(n + 1):
                if survival[j, i] > survival[j + 2, i] + 1e-12:
                    return False, (j, j + 2, i)
        return True, None

    def test_matches_per_level_reference(self):
        for n in range(1, 25):
            for ell in range(1, n + 1):
                assert compliance_check(n, ell) == self.reference(n, ell), (n, ell)
        # larger n, at small flips and at flips of half or all the bits
        for n in [*range(65, 101), 128, 150, 200]:
            for ell in (1, 2, 3, 4, 7, n // 2, n - 1, n):
                assert compliance_check(n, ell) == self.reference(n, ell), (n, ell)

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_n_named(self, n):
        for check in (lambda: compliance_check(n, 1), lambda: rlsl_kernel(n, 1, lambda j: 0)):
            with pytest.raises(ValueError, match=f"n must be at least 1, got n={n}"):
                check()

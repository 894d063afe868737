import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateaulab.core import (
    BitString,
    FixedOnes,
    Point,
    RngStream,
    Uniform,
    UniformNonOptimal,
    count_bit_range,
    flip_bits,
    hypergeom_pmf,
    log_binomial,
    sample_bitstring,
    sample_uniform_subset,
)
from plateaulab.fitness import MajorityFitness


def rng_for(seed, stream=0):
    return RngStream(seed, stream).generator()


def numpy_swap_subset(n, ell, rng):
    """Reference partial Fisher-Yates shuffle, swapping in a numpy index array."""
    idx = np.arange(n, dtype=np.int64)
    js = rng.integers(np.arange(ell), n).tolist()
    for i in range(ell):
        j = js[i]
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:ell].copy()


class TestBitString:
    def test_single_flip(self):
        x = BitString.from01("0000")
        y = flip_bits(x, [2])
        assert y.to01() == "0010"
        assert y.ones == 1

    def test_full_inversion(self):
        x = BitString.from01("1111")
        y = flip_bits(x, [0, 1, 2, 3])
        assert y.to01() == "0000"
        assert y.ones == 0

    def test_flip_errors(self):
        x = BitString.from01("0000")
        with pytest.raises(ValueError):
            flip_bits(x, [4])
        with pytest.raises(ValueError):
            flip_bits(x, [1, 1])

    def test_complement(self):
        x = BitString.from01("1010011")
        assert x.complement().to01() == "0101100"
        assert x.complement().ones == x.n - x.ones

    def test_tail_word_invariant(self):
        with pytest.raises(ValueError):
            BitString(3, np.array([8], dtype=np.uint64))

    @given(st.data())
    @settings(max_examples=60)
    def test_from_indices_matches_from01(self, data):
        n = data.draw(st.integers(1, 200))
        idx = set(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
        x = BitString.from_indices(n, sorted(idx, reverse=True))
        assert x == BitString.from01("".join("1" if i in idx else "0" for i in range(n)))
        assert x.ones == len(idx)
        assert x.unpacked().tolist() == [int(i in idx) for i in range(n)]

    def test_from_indices_out_of_range(self):
        for bad in ([3, 130], [-1], [0, 200, -1]):
            first = next(i for i in bad if not 0 <= i < 130)
            with pytest.raises(ValueError, match=f"^index {first} out of range for length 130$"):
                BitString.from_indices(130, np.array(bad))

    def test_from_indices_duplicates(self):
        with pytest.raises(ValueError, match="^indices must be pairwise distinct$"):
            BitString.from_indices(130, [5, 70, 5])

    def test_count_bit_range_spans_words(self):
        x = BitString.from_indices(130, [0, 63, 64, 65, 128, 129])
        words = x.words
        assert count_bit_range(words, 0, 130) == 6
        assert count_bit_range(words, 63, 66) == 3
        assert count_bit_range(words, 1, 63) == 0
        assert count_bit_range(words, 128, 130) == 2

    @given(st.data())
    @settings(max_examples=60)
    def test_flip_involution(self, data):
        n = data.draw(st.integers(1, 200))
        bits = data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
        x = BitString.from01("".join(bits))
        k = data.draw(st.integers(1, n))
        idx = data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        assert flip_bits(flip_bits(x, idx), idx) == x

    @given(st.data())
    @settings(max_examples=60)
    def test_ones_cache_matches_popcount(self, data):
        n = data.draw(st.integers(1, 150))
        x = BitString(n)
        for _ in range(data.draw(st.integers(0, 5))):
            k = data.draw(st.integers(1, n))
            idx = data.draw(
                st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
            )
            x = flip_bits(x, idx)
        assert x.ones == sum(x.bit(i) for i in range(n))
        assert 0 <= x.ones <= n


class TestRngStream:
    def test_equal_keys_replay(self):
        a = rng_for(123, 5).integers(0, 1000, size=50)
        b = rng_for(123, 5).integers(0, 1000, size=50)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rng_for(123, 5).integers(0, 1000, size=50)
        b = rng_for(123, 6).integers(0, 1000, size=50)
        assert not np.array_equal(a, b)

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)

    @pytest.mark.parametrize(
        "seed,stream", [(-1, 0), (2**64, 0), (1, 2**64)]
    )
    def test_aliasing_keys_rejected(self, seed, stream):
        # each would otherwise replay the stream of a key inside [0, 2**64)
        with pytest.raises(ValueError):
            RngStream(seed, stream)

    def test_largest_keys_accepted(self):
        assert rng_for(2**64 - 1, 2**64 - 1).integers(0, 10) in range(10)

    @pytest.mark.parametrize("seed,stream", [(0, 0), (2**64 - 1, 2**64 - 1), (5, 17)])
    def test_stream_is_philox_keyed_by_seed_and_index(self, seed, stream):
        ours = rng_for(seed, stream)
        ref = np.random.Generator(np.random.Philox(key=[seed, stream]))
        draws = (
            # an odd count of 32-bit draws, so the next draws start mid-word
            lambda g: g.integers(0, 1000, size=37),
            lambda g: g.bytes(13),
            lambda g: g.random(5),
            lambda g: g.integers(0, 2**63, size=9),
        )
        for draw in draws:
            assert np.array_equal(draw(ours), draw(ref))


class TestSubsetSampling:
    def test_forced_single(self):
        rng = rng_for(1)
        for _ in range(10):
            assert sample_uniform_subset(1, 1, rng).tolist() == [0]

    def test_forced_full(self):
        rng = rng_for(2)
        assert sorted(sample_uniform_subset(4, 4, rng).tolist()) == [0, 1, 2, 3]

    def test_size_errors(self):
        rng = rng_for(3)
        with pytest.raises(ValueError):
            sample_uniform_subset(4, 0, rng)
        with pytest.raises(ValueError):
            sample_uniform_subset(4, 5, rng)

    def test_single_index_frequencies(self):
        rng = rng_for(4)
        counts = np.zeros(3)
        draws = 30_000
        for _ in range(draws):
            counts[sample_uniform_subset(3, 1, rng)[0]] += 1
        assert np.all(np.abs(counts / draws - 1 / 3) < 0.01)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 1000])
    @pytest.mark.parametrize("k", [1, 2, 17])
    def test_batch_replays_consecutive_draws(self, n, k):
        for ell in sorted({1, n >> 6, (n >> 6) + 1, n} & set(range(1, n + 1))):
            batched, single = rng_for(12, ell), rng_for(12, ell)
            rows = sample_uniform_subset(n, ell, batched, size=k)
            expected = [sample_uniform_subset(n, ell, single) for _ in range(k)]
            assert rows.shape == (k, ell)
            assert np.array_equal(rows, np.stack(expected))
            assert batched.integers(0, 2**63) == single.integers(0, 2**63)

    @pytest.mark.parametrize(
        "n,ell",
        [(1, 1), (2, 1), (2, 2), (7, 3), (64, 2), (100, 2), (100, 50), (100, 100),
         (130, 3), (1000, 16)],
    )
    def test_shuffle_matches_numpy_swaps(self, n, ell):
        assert ell > n >> 6  # the shuffle regime
        for seed in range(200):
            got, ref = rng_for(seed, n), rng_for(seed, n)
            subset = sample_uniform_subset(n, ell, got)
            expected = numpy_swap_subset(n, ell, ref)
            assert subset.dtype == np.int64
            assert np.array_equal(subset, expected)
            assert got.integers(0, 2**63) == ref.integers(0, 2**63)

    def test_determinism(self):
        a = [sample_uniform_subset(50, 7, rng_for(9, 3)).tolist() for _ in range(1)]
        b = [sample_uniform_subset(50, 7, rng_for(9, 3)).tolist() for _ in range(1)]
        assert a == b

    @pytest.mark.parametrize(
        "n,ell,draws",
        [
            (6, 3, 1_000_000),  # Fisher-Yates regime, all C(6,3)=20 subsets
            (70, 1, 200_000),  # rejection regime (ell <= n/64), 70 cells
        ],
    )
    def test_subset_uniformity_chi_square(self, n, ell, draws):
        from scipy.stats import chi2

        rng = rng_for(5)
        counts: dict[tuple, int] = {}
        for _ in range(draws):
            key = tuple(sorted(sample_uniform_subset(n, ell, rng).tolist()))
            counts[key] = counts.get(key, 0) + 1
        cells = math.comb(n, ell)
        expected = draws / cells
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        stat += (cells - len(counts)) * expected  # never-seen subsets
        assert stat < chi2.ppf(1 - 0.001, df=cells - 1)


class TestSampleBitstring:
    def test_fixed_ones_extremes(self):
        rng = rng_for(6)
        assert sample_bitstring(5, FixedOnes(5), rng).to01() == "11111"
        assert sample_bitstring(5, FixedOnes(0), rng).to01() == "00000"
        full = sample_bitstring(70, FixedOnes(70), rng)
        assert full.ones == 70 and full == BitString(70).complement()
        # the only string with 0 or n ones draws nothing from the stream
        assert rng.integers(2**63) == rng_for(6).integers(2**63)
        x = sample_bitstring(40, FixedOnes(13), rng)
        assert x.ones == 13

    @pytest.mark.parametrize("n,ones", [(2, 1), (70, 13), (130, 128), (200, 2)])
    def test_fixed_ones_is_the_drawn_subset(self, n, ones):
        ref_rng, rng = rng_for(14, n), rng_for(14, n)
        for _ in range(3):
            expected = BitString.from_indices(n, sample_uniform_subset(n, ones, ref_rng))
            x = sample_bitstring(n, FixedOnes(ones), rng)
            assert x == expected and x.ones == ones == expected.ones
        assert rng.integers(2**63) == ref_rng.integers(2**63)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("mid_word", [False, True])
    def test_uniform_draws_what_the_bytes_build_drew(self, n, mid_word):
        # the uniform build of earlier releases, kept as the reference
        ref_rng, rng = rng_for(13, n), rng_for(13, n)
        if mid_word:
            # one 32-bit draw leaves half a 64-bit word buffered
            assert ref_rng.integers(0, 7) == rng.integers(0, 7)
        n_words = (n + 63) // 64
        for _ in range(3):
            words = np.frombuffer(ref_rng.bytes(8 * n_words), dtype=np.uint64).copy()
            if n % 64:
                words[-1] &= np.uint64((1 << (n % 64)) - 1)
            x = sample_bitstring(n, Uniform(), rng)
            assert np.array_equal(x.words, words)
            assert x.words.dtype == np.uint64 and x.words.shape == (n_words,)
            assert x.ones == int(np.bitwise_count(words).sum())
        assert rng.integers(2**63) == ref_rng.integers(2**63)

    def test_fixed_ones_out_of_range(self):
        with pytest.raises(ValueError):
            sample_bitstring(4, FixedOnes(5), rng_for(7))

    def test_point_identity(self):
        x = sample_bitstring(4, Point("1010"), rng_for(8))
        assert x.to01() == "1010"
        with pytest.raises(ValueError):
            sample_bitstring(5, Point("1010"), rng_for(8))

    def test_uniform_mean_ones(self):
        rng = rng_for(9)
        n, draws = 20, 100_000
        total = sum(sample_bitstring(n, Uniform(), rng).ones for _ in range(draws))
        assert abs(total / draws - n / 2) < 0.1

    def test_uniform_nonoptimal_avoids_optima(self):
        fit = MajorityFitness(10, 2)
        rng = rng_for(10)
        for _ in range(200):
            x = sample_bitstring(10, UniformNonOptimal(fit), rng)
            assert fit.value(x) == 0

    def test_uniform_nonoptimal_cap(self):
        # plateau with r=0 is constant 1: everything is optimal
        from plateaulab.fitness import PlateauFitness

        fit = PlateauFitness(6, 0)
        with pytest.raises(RuntimeError):
            sample_bitstring(6, UniformNonOptimal(fit), rng_for(11))

    def test_determinism_across_objects(self):
        a = sample_bitstring(64, Uniform(), rng_for(12, 7))
        b = sample_bitstring(64, Uniform(), rng_for(12, 7))
        assert a == b


class TestCounting:
    def test_log_binomial_small(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-14)
        assert log_binomial(10, 0) == 0.0

    def test_log_binomial_errors(self):
        with pytest.raises(ValueError):
            log_binomial(4, 5)
        with pytest.raises(ValueError):
            log_binomial(4, -1)

    def test_hypergeom_small_case(self):
        assert hypergeom_pmf(4, 2, 2, 1) == pytest.approx(2 / 3, rel=1e-12)

    def test_hypergeom_normalization(self):
        n, j, ell = 100, 37, 13
        total = sum(
            hypergeom_pmf(n, j, ell, a)
            for a in range(max(0, ell - (n - j)), min(j, ell) + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_hypergeom_support_errors(self):
        with pytest.raises(ValueError):
            hypergeom_pmf(4, 2, 2, 3)
        with pytest.raises(ValueError):
            hypergeom_pmf(4, 5, 2, 1)

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateaulab.core import BitString, FixedOnes, RngStream, flip_bits, sample_bitstring, Uniform
from plateaulab.ea import RlsMutation, RunConfig, run
from plateaulab.fitness import (
    ROW_LIMIT,
    BlockMajorityFitness,
    MajorityFitness,
    NeutralityFitness,
    OneMax,
    PlateauFitness,
    make_fitness,
)


def bs(bits):
    return BitString.from01(bits)


def random_bitstring(n, seed):
    return sample_bitstring(n, Uniform(), RngStream(seed).generator())


class TestPlateau:
    def test_r0_is_constant_one(self):
        f = PlateauFitness(4, 0)
        for bits in itertools.product("01", repeat=4):
            assert f.value(bs("".join(bits))) == 1

    def test_boundary_cases(self):
        f = PlateauFitness(4, 2)
        assert f.value(bs("0011")) == 0
        assert f.value(bs("0001")) == 0  # three zeros < threshold 4
        assert f.value(bs("0000")) == 1

    def test_threshold_n6_r1(self):
        f = PlateauFitness(6, 1)
        assert f.value(bs("110100")) == 0  # 3 ones, 3 zeros: max count 3 < 4
        assert f.value(bs("110110")) == 1  # 4 ones

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PlateauFitness(4, 1).value(bs("00000"))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PlateauFitness(5, 1)
        with pytest.raises(ValueError):
            PlateauFitness(4, 3)

    @given(st.data())
    @settings(max_examples=80)
    def test_complement_symmetry(self, data):
        n = 2 * data.draw(st.integers(1, 20))
        r = data.draw(st.integers(0, n // 2))
        bits = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
        f = PlateauFitness(n, r)
        x = bs(bits)
        assert f.value(x) == f.value(x.complement())


class TestMajority:
    def test_threshold_n4_r2(self):
        f = MajorityFitness(4, 2)
        assert f.value(bs("1111")) == 1
        assert f.value(bs("1110")) == 0

    def test_exhaustive_n2_r1(self):
        f = MajorityFitness(2, 1)
        assert f.value(bs("11")) == 1
        assert f.value(bs("10")) == 0
        assert f.value(bs("01")) == 0
        assert f.value(bs("00")) == 0

    @given(st.data())
    @settings(max_examples=100)
    def test_majority_implies_plateau(self, data):
        n = 2 * data.draw(st.integers(1, 20))
        r = data.draw(st.integers(0, n // 2))
        bits = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
        x = bs(bits)
        if MajorityFitness(n, r).value(x) == 1:
            assert PlateauFitness(n, r).value(x) == 1

    @given(st.data())
    @settings(max_examples=80)
    def test_monotone_under_zero_to_one_flip(self, data):
        n = 2 * data.draw(st.integers(1, 16))
        r = data.draw(st.integers(0, n // 2))
        bits = data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
        x = bs("".join(bits))
        zeros = [i for i in range(n) if not x.bit(i)]
        if not zeros:
            return
        i = data.draw(st.sampled_from(zeros))
        f = MajorityFitness(n, r)
        assert f.value(flip_bits(x, [i])) >= f.value(x)

    @pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (8, 1), (8, 3), (16, 2), (16, 8)])
    def test_optima_count_by_enumeration(self, n, r):
        f = MajorityFitness(n, r)
        count = 0
        for value in range(2**n):
            ones = value.bit_count()
            if f.level_value(ones) == 1:
                count += 1
        assert count == sum(math.comb(n, j) for j in range(n // 2 + r, n + 1))

    @pytest.mark.parametrize("n,r", [(8, 2), (16, 5)])
    def test_majority_optima_subset_of_plateau_optima(self, n, r):
        fm, fp = MajorityFitness(n, r), PlateauFitness(n, r)
        maj = plat = 0
        for value in range(2**n):
            ones = value.bit_count()
            m, p = fm.level_value(ones), fp.level_value(ones)
            assert p >= m
            maj += m
            plat += p
        assert maj * 2 == plat or r == 0  # two symmetric optimum caps for r >= 1


class TestOneMax:
    def test_values(self):
        f = OneMax(4)
        assert f.value(bs("0000")) == 0
        assert f.value(bs("1111")) == 4
        assert f.value(bs("1010")) == 2
        assert f.max_value == 4


class TestNeutrality:
    def test_two_blocks_width_two(self):
        f = NeutralityFitness(OneMax(2), 2)
        assert f.value(bs("1101")) == 1  # block 11 votes 1, block 01 votes 0

    def test_odd_width_strict_majority(self):
        f = NeutralityFitness(OneMax(1), 3)
        assert f.value(bs("110")) == 1
        assert f.value(bs("100")) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            NeutralityFitness(OneMax(2), 2).value(bs("110"))

    def test_base_must_be_level_symmetric(self):
        with pytest.raises(ValueError, match="ones count alone"):
            NeutralityFitness(BlockMajorityFitness(2, 3, 1), 2)

    @given(st.data())
    @settings(max_examples=60)
    def test_within_block_permutation_invariance(self, data):
        blocks = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 6))
        f = NeutralityFitness(OneMax(blocks), k)
        bits = data.draw(
            st.lists(st.sampled_from("01"), min_size=blocks * k, max_size=blocks * k)
        )
        x = bs("".join(bits))
        b = data.draw(st.integers(0, blocks - 1))
        perm = data.draw(st.permutations(list(range(k))))
        shuffled = list(bits)
        for offset, source in enumerate(perm):
            shuffled[b * k + offset] = bits[b * k + source]
        assert f.value(bs("".join(shuffled))) == f.value(x)

    @given(st.data())
    @settings(max_examples=60)
    def test_monotone_with_onemax_base(self, data):
        blocks = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 5))
        n = blocks * k
        bits = data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
        x = bs("".join(bits))
        zeros = [i for i in range(n) if not x.bit(i)]
        if not zeros:
            return
        i = data.draw(st.sampled_from(zeros))
        f = NeutralityFitness(OneMax(blocks), k)
        assert f.value(flip_bits(x, [i])) >= f.value(x)


class TestBlockMajority:
    def test_block_extraction(self):
        g1 = BlockMajorityFitness(1, 2, 2)
        assert g1.value(bs("1100")) == 1
        assert g1.value(bs("0011")) == 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            BlockMajorityFitness(0, 2, 2)
        with pytest.raises(ValueError):
            BlockMajorityFitness(3, 2, 2)

    @given(st.data())
    @settings(max_examples=60)
    def test_locality_outside_block(self, data):
        blocks = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(1, 5))
        block = data.draw(st.integers(1, blocks))
        g = BlockMajorityFitness(block, blocks, k)
        n = blocks * k
        bits = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
        x = bs(bits)
        outside = [i for i in range(n) if not (block - 1) * k <= i < block * k]
        i = data.draw(st.sampled_from(outside))
        assert g.value(flip_bits(x, [i])) == g.value(x)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40)
    def test_separability_identity(self, seed):
        neutral = NeutralityFitness(OneMax(3), 4)
        x = random_bitstring(neutral.n, seed)
        parts = sum(
            BlockMajorityFitness(b, neutral.blocks, neutral.k).value(x)
            for b in range(1, neutral.blocks + 1)
        )
        assert parts == neutral.value(x)


class TestBlockCounts:
    # 140 bits in width-7 blocks: blocks 10 and 19 straddle 64-bit words
    @pytest.mark.parametrize(
        "fit",
        [NeutralityFitness(OneMax(20), 7)]
        + [BlockMajorityFitness(b, 20, 7) for b in (1, 10, 19, 20)],
        ids=repr,
    )
    def test_counts_and_packed_words_across_word_edges(self, fit):
        for seed in range(30):
            x = random_bitstring(fit.n, seed)
            # the 64-bit words as Python ints, the form the benchmark tracer passes
            words = [x.bits >> 64 * w & (1 << 64) - 1 for w in range(3)]
            assert fit.value_packed(words, x.ones) == fit.value(x)
            sums = x.unpacked().reshape(fit.blocks, fit.k).sum(axis=1).tolist()
            assert fit.block_counts(x.bits) == [
                c if b in fit.scored_blocks else 0 for b, c in enumerate(sums)
            ]


class TestLevelTables:
    @pytest.mark.parametrize(
        "fit", [PlateauFitness(8, 2), MajorityFitness(8, 0), MajorityFitness(10, 3), OneMax(7)]
    )
    def test_tables_follow_level_value(self, fit):
        assert fit.level_values == [fit.level_value(j) for j in range(fit.n + 1)]
        assert fit.level_values is fit.level_values
        # a single flip moves to the neighbouring count iff that scores at
        # least as high, and the stop tables mark every move onto an optimal
        # count j with n + 1 + j (``stop_pair``), as one row per count at these n
        assert fit.stop_tables == walk_form(fit)
        assert fit.stop_tables is fit.stop_tables


# the byte limit's edges and two n far from it; the threshold objectives
# need an even n, and r = n/2 leaves the ends as the only optima
ROW_FITS = (
    [OneMax(n) for n in (1, 2, 3, 99, 100, 255, 256)]
    + [cls(n, r) for cls in (PlateauFitness, MajorityFitness)
       for n, r in ((2, 1), (100, 0), (100, 8), (256, 16), (256, 128))]
)


def compare_rule(lower, higher):
    """Per count j, the count a flip of position i moves j to, by the
    comparison the engines make past n = 256."""
    n = len(lower) - 1
    return [[lower[j] if i < j else higher[j] for i in range(n)] for j in range(n + 1)]


def stop_pair(fit):
    """Per count j, the count an elitist single flip moves j to from
    ``fit``'s level values, clearing a set bit and setting one, with every
    move onto an optimal count k written n + 1 + k."""
    n = fit.n
    vals = [fit.level_value(j) for j in range(n + 1)]

    def stop(j):
        return n + 1 + j if vals[j] == fit.max_value else j

    lower = [stop(j - 1 if j > 0 and vals[j - 1] >= vals[j] else j) for j in range(n + 1)]
    higher = [stop(j + 1 if j < n and vals[j + 1] >= vals[j] else j) for j in range(n + 1)]
    return lower, higher


def walk_form(fit):
    """``stop_pair`` as the single-flip walk reads it: rows up to n = 256,
    the pair past it."""
    pair = stop_pair(fit)
    return compare_rule(*pair) if fit.n <= 256 else pair


class TestPositionRows:
    @pytest.mark.parametrize("fit", ROW_FITS, ids=repr)
    def test_rows_follow_the_compare_rule(self, fit):
        n = fit.n
        assert n <= ROW_LIMIT == 256
        lower, higher = stop_pair(fit)
        assert fit.stop_tables == compare_rule(lower, higher)
        assert fit.stop_tables is fit.stop_tables
        # a move onto an optimum j keeps its exit n + 1 + j
        exits = {j for j in lower + higher if j > n}
        assert {j for row in fit.stop_tables for j in row if j > n} == exits
        if isinstance(fit, MajorityFitness):
            # the restart phases are the stop tables of the paper's two objectives
            assert fit.phase_tables == (
                walk_form(PlateauFitness(n, fit.r)), walk_form(MajorityFitness(n, 0))
            )
            assert fit.phase_tables is fit.phase_tables

    # past n = 256 the tables are the (lower, higher) pair
    @pytest.mark.parametrize(
        "fit", [OneMax(257), PlateauFitness(258, 8), MajorityFitness(258, 129),
                MajorityFitness(1000, 31)], ids=repr
    )
    def test_pairs_past_the_row_limit(self, fit):
        assert fit.stop_tables == stop_pair(fit)
        assert fit.stop_tables is fit.stop_tables
        if isinstance(fit, MajorityFitness):
            assert fit.phase_tables == (
                stop_pair(PlateauFitness(fit.n, fit.r)), stop_pair(MajorityFitness(fit.n, 0))
            )

    # a start at n/2 ones: no run of these cells starts optimal
    @pytest.mark.parametrize("n", [100, 256, 258])
    def test_built_once_by_unrecorded_single_flips_up_to_256(self, n):
        fit = MajorityFitness(n, 4)

        def cell(ell=1, **record):
            return RunConfig(fit, RlsMutation(ell), FixedOnes(n // 2), 3, max_iters=300,
                             **record)

        for cfg in (cell(record_trajectory=True), cell(3),
                    cell(record_trajectory=True, record_restart_stats=True)):
            run(cfg, 0)
        assert "stop_tables" not in vars(fit) and "phase_tables" not in vars(fit)
        built = {}
        for name, cfg in (("stop_tables", cell()),
                          ("phase_tables", cell(record_restart_stats=True))):
            run(cfg, 0)
            built[name] = vars(fit)[name]
            run(cfg, 1)
            assert vars(fit)[name] is built[name]
        # rows per count up to n = 256, the (lower, higher) pair past it
        for tables in (built["stop_tables"], *built["phase_tables"]):
            assert len(tables) == (n + 1 if n <= 256 else 2)


class TestRegistry:
    def test_names(self):
        assert isinstance(make_fitness("plateau", 6, r=1), PlateauFitness)
        assert isinstance(make_fitness("majority", 6, r=2), MajorityFitness)
        assert isinstance(make_fitness("onemax", 6), OneMax)
        neutral = make_fitness("onemax-neutral", 4, k=3)
        assert isinstance(neutral, NeutralityFitness)
        assert neutral.n == 12
        with pytest.raises(ValueError):
            make_fitness("needle", 6)

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateaulab.core import (
    BitString,
    Draws,
    FixedOnes,
    Point,
    RngStream,
    Uniform,
    UniformNonOptimal,
    flip_bits,
    hypergeom_pmf,
    overlap_support,
    reset_stream,
    sample_bitstring,
    sample_uniform_subset,
)
from plateaulab.core import _lockstep_frame, _rejection_rows, _shuffle_prefix
from plateaulab.fitness import MajorityFitness, NeutralityFitness, OneMax


def rng_for(seed, stream=0):
    return RngStream(seed, stream).generator()


def philox_state(rng):
    """The Philox state of ``rng`` that later draws read, arrays as lists;
    the buffered half word counts only while ``has_uint32`` is set."""
    state = rng.bit_generator.state
    inner = {k: v.tolist() for k, v in state["state"].items()}
    half = state["uinteger"] if state["has_uint32"] else None
    return inner, state["buffer"].tolist(), state["buffer_pos"], half


def numpy_swap_subset(n, ell, rng):
    """Reference partial Fisher-Yates shuffle, swapping in a numpy index array."""
    idx = np.arange(n, dtype=np.int64)
    js = rng.integers(np.arange(ell), n).tolist()
    for i in range(ell):
        j = js[i]
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:ell].copy()


def rejection_subset(n, ell, rng):
    """Reference rejection sampler: one integers() call per attempt, the
    first ``ell`` distinct values kept."""
    chosen: set[int] = set()
    out: list[int] = []
    while len(out) < ell:
        need = ell - len(out)
        for i in rng.integers(0, n, size=2 * need).tolist():
            if i not in chosen:
                chosen.add(i)
                out.append(i)
                if len(out) == ell:
                    break
    return out


def list_shuffle_prefix(n, js):
    """Reference partial Fisher-Yates shuffle, swapping in a full index list."""
    idx = list(range(n))
    for i, j in enumerate(js):
        idx[i], idx[j] = idx[j], idx[i]
    return idx[: len(js)]


def reference_subset(n, ell, rng):
    """One draw of the scalar samplers: rejection when ell <= n/64, else a
    shuffle of the full index list."""
    if ell <= n >> 6:
        return rejection_subset(n, ell, rng)
    return list_shuffle_prefix(n, rng.integers(np.arange(ell), n).tolist())


class CountingDraws(Draws):
    """A ``Draws`` that counts its one-bound draws."""

    def __init__(self, rng):
        super().__init__(rng, buffered=None)
        self.calls = 0

    def below(self, n, k):
        self.calls += 1
        return super().below(n, k)


@st.composite
def subset_batches(draw):
    """(n, ell, k, seed) in one of the samplers' regimes."""
    n = draw(st.integers(1, 5000))
    regimes = ["lockstep", "scalar"] + (["rejection"] if n >= 64 else [])
    regime = draw(st.sampled_from(regimes))
    if regime == "rejection":
        ell = draw(st.integers(1, n >> 6))
    else:
        ell = draw(st.integers((n >> 6) + 1, n))
    k = draw(st.integers(1, 2) if regime == "scalar" else st.integers(1, 100))
    return n, ell, k, draw(st.integers(0, 2**32))


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

    def test_bits_past_the_length_rejected(self):
        for bad in (8, -1):
            with pytest.raises(ValueError, match="^bits beyond the string length must be zero$"):
                BitString(3, bad)

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


# ways to leave a generator somewhere other than the start of a stream
DIRTY = {
    # an odd count of 32-bit draws buffers the high half of a word
    "half_word": lambda g: g.integers(0, 1000, size=37),
    # one 64-bit draw leaves three words of Philox's 4-word buffer unread
    "part_buffer": lambda g: g.random(1),
    "counter": lambda g: g.bit_generator.advance(10**6),
    "all_three": lambda g: (g.bit_generator.advance(99), g.random(2), g.integers(0, 7, size=3)),
    "untouched": lambda g: None,
}


class TestRngStreamReset:
    @pytest.mark.parametrize("dirty", sorted(DIRTY))
    @pytest.mark.parametrize(
        "seed,stream", [(0, 0), (2**64 - 1, 2**64 - 1), (5, 17), (123, 5)]
    )
    def test_reset_replays_a_new_generator(self, dirty, seed, stream):
        # the used generator had another key, or (123, 5) this one
        used = rng_for(123, 5)
        DIRTY[dirty](used)
        RngStream(seed, stream).reset(used)
        # generator() is itself a reset, so the reference is built by numpy
        fresh = np.random.Generator(np.random.Philox(key=[seed, stream]))
        assert philox_state(used) == philox_state(fresh)
        # raw 32-bit draws first: Lemire's rule would reject a stale zero
        # half word at most bounds, and hide it
        draws = (
            lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
            lambda g: g.integers(0, 1000, size=37),
            lambda g: g.bit_generator.random_raw(5),
            lambda g: g.integers(0, 2**63, size=9),
            lambda g: g.random(5),
            lambda g: g.integers(0, 10, size=1),
        )
        for draw in draws:
            assert np.array_equal(draw(used), draw(fresh))

    @pytest.mark.parametrize("seed,stream", [(0, 0), (2**64 - 1, 2**64 - 1), (123, 5)])
    def test_reset_stream_is_the_reset_of_its_key(self, seed, stream):
        used = rng_for(123, 5)
        DIRTY["all_three"](used)
        reset_stream(used, seed, stream)
        assert philox_state(used) == philox_state(rng_for(seed, stream))

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (1, -1), (1, 2**64)])
    def test_reset_stream_rejects_what_rngstream_rejects(self, seed, stream):
        used = rng_for(123, 5)
        before = philox_state(used)
        with pytest.raises(ValueError) as raised:
            RngStream(seed, stream)
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            reset_stream(used, seed, stream)
        # rejected before the state is touched
        assert philox_state(used) == before

    def test_generator_is_new_on_every_call(self):
        stream = RngStream(3, 4)
        a, b = stream.generator(), stream.generator()
        assert a is not b and a.bit_generator is not b.bit_generator
        a.random(3)
        assert philox_state(b) == philox_state(stream.generator())


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

    # 255-257 and 65536-65537 sit on both sides of the lockstep frame's
    # uint8 and uint16 positions
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 255, 256, 257, 1000, 65536, 65537])
    @pytest.mark.parametrize("k", [1, 2, 17])
    def test_batch_replays_consecutive_draws(self, n, k):
        for ell in sorted({1, n >> 6, (n >> 6) + 1, n} & set(range(1, n + 1))):
            batched, single = rng_for(12, ell), rng_for(12, ell)
            rows = sample_uniform_subset(n, ell, batched, size=k)
            expected = [sample_uniform_subset(n, ell, single) for _ in range(k)]
            assert rows.shape == (k, ell)
            assert np.array_equal(rows, np.stack(expected))
            assert batched.integers(0, 2**63) == single.integers(0, 2**63)

    def test_lockstep_batches_share_read_only_frames(self):
        # interleaved (n, m, k) keys on one stream: each batch replays its
        # single draws, and the cached arrays of a key stay as built while
        # the other keys' batches run
        keys = [(100, 2, 64), (300, 10, 17), (100, 2, 81), (100, 50, 64), (70000, 1100, 3)]
        batched, single = rng_for(13), rng_for(13)
        kept = {}
        for n, m, k in keys + keys[::-1] + keys:
            rows = sample_uniform_subset(n, m, batched, size=k)
            expected = [sample_uniform_subset(n, m, single) for _ in range(k)]
            assert np.array_equal(rows, np.stack(expected))
            kept.setdefault((n, m, k), _lockstep_frame(n, m, k))
        assert batched.integers(0, 2**63) == single.integers(0, 2**63)
        for (n, m, k), arrays in kept.items():
            assert all(a is b for a, b in zip(arrays, _lockstep_frame(n, m, k)))
            base, here, frame = arrays
            assert not any(a.flags.writeable for a in arrays)
            assert np.array_equal(base, np.arange(k) * n)
            assert np.array_equal(here, np.arange(m)[:, None] + base)
            assert frame.dtype == {100: np.uint8, 300: np.uint16, 70000: np.uint32}[n]
            assert np.array_equal(frame, np.tile(np.arange(n), k))

    @settings(max_examples=80, deadline=None)
    @given(case=subset_batches())
    def test_batch_replays_single_draws_in_every_regime(self, case):
        n, ell, k, seed = case
        batched, single, ref = rng_for(seed, n), rng_for(seed, n), rng_for(seed, n)
        rows = sample_uniform_subset(n, ell, batched, size=k)
        expected = [reference_subset(n, ell, ref) for _ in range(k)]
        assert rows.shape == (k, ell) and rows.dtype == np.int64
        assert rows.tolist() == expected
        assert [sample_uniform_subset(n, ell, single).tolist() for _ in range(k)] == expected
        # the samplers read raw words, which leave the spent half word
        # (uinteger while has_uint32 is 0) as it was; no draw reads it
        assert philox_state(batched) == philox_state(ref) == philox_state(single)

    @pytest.mark.parametrize("n,ell", [(1, 1), (2, 2), (3, 2), (3, 3), (5, 3), (8, 8)])
    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_rejection_reader_tops_up_like_single_draws(self, n, ell, k):
        # at n this small an attempt of 2*ell values often holds fewer than
        # ell distinct ones, so the reader must top its buffer up mid-batch
        top_ups = 0
        for seed in range(20):
            got, ref = CountingDraws(rng_for(seed, n)), rng_for(seed, n)
            rows = _rejection_rows(n, ell, got, k)
            assert rows == [rejection_subset(n, ell, ref) for _ in range(k)]
            check_draws_leave(got, ref)
            top_ups += got.calls - 1
        if ell > 1 and k >= 7:
            assert top_ups > 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sparse_shuffle_matches_list_shuffle(self, data):
        # n from ell to 30 ell covers both sides of the sparse switch
        ell = data.draw(st.integers(1, 60))
        n = data.draw(st.integers(ell, 30 * ell))
        offsets = data.draw(st.lists(st.integers(0, n), min_size=ell, max_size=ell))
        js = [i + v % (n - i) for i, v in enumerate(offsets)]
        assert _shuffle_prefix(n, js) == list_shuffle_prefix(n, js)

    @pytest.mark.parametrize(
        "n,ell",
        [(1, 1), (2, 1), (2, 2), (7, 3), (64, 2), (100, 2), (100, 50), (100, 100),
         (130, 3), (1000, 16), (8200, 129), (20000, 400)],
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
        # the draws single calls would make: a size=k batch replays k
        # consecutive single draws (test_batch_replays_consecutive_draws),
        # and the counter keeps the order in which subsets were first seen
        counts: Counter[tuple] = Counter()
        for start in range(0, draws, 100_000):
            rows = sample_uniform_subset(n, ell, rng, size=min(100_000, draws - start))
            counts.update(map(tuple, np.sort(rows, axis=1).tolist()))
        cells = math.comb(n, ell)
        expected = draws / cells
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        stat += (cells - len(counts)) * expected  # never-seen subsets
        assert stat < chi2.ppf(1 - 0.001, df=cells - 1)


def lemire_reference(rng, bounds, n):
    """Lemire's rule in Python over numpy's own 32-bit draws: the values
    ``rng.integers(bounds, n)`` returns, and how many draws it redrew."""
    out, redraws = [], 0
    for low in map(int, bounds):
        span = n - low
        if span == 1:  # numpy draws nothing for a range of one value
            out.append(low)
            continue
        floor = (2**32 - span) % span
        while True:
            # a uint32 draw of the whole 32-bit range is one 32-bit draw
            prod = int(rng.integers(0, 2**32, dtype=np.uint32)) * span
            if prod & 0xFFFFFFFF >= floor:
                break
            redraws += 1
        out.append(low + (prod >> 32))
    return out, redraws


def check_draws_leave(draws, ref):
    """``draws`` left its stream as ``ref``, knows (or does not claim to
    know) its half word, and both streams go on alike."""
    assert philox_state(draws.rng) == philox_state(ref)
    assert draws.buffered in (None, bool(ref.bit_generator.state["has_uint32"]))
    assert draws.rng.integers(0, 2**40) == ref.integers(0, 2**40)
    raw = draws.rng.bit_generator.random_raw(3)
    assert raw.tolist() == ref.bit_generator.random_raw(3).tolist()


def tiled_integers(rng, n, m, k):
    return rng.integers(np.arange(k * m) % m, n).reshape(k, m)


class TestRawDraws:
    # n from 2 to 20000; m = n (the last range holds one value), m = 1
    # (the one-bound draw) and odd and even counts k * m
    @pytest.mark.parametrize(
        "n,m,k",
        [(2, 2, 3), (3, 2, 5), (5, 3, 1), (7, 7, 4), (100, 1, 9), (100, 2, 64), (100, 25, 81),
         (100, 50, 64), (101, 34, 3), (1000, 500, 1), (1000, 16, 2), (8200, 129, 3),
         (20000, 400, 2), (20000, 9999, 1)],
    )
    @pytest.mark.parametrize("mid_word", [False, True])
    def test_rows_replay_integers(self, n, m, k, mid_word):
        for seed in range(25):
            rng, ref = rng_for(seed, n), rng_for(seed, n)
            if mid_word:
                # an odd count of 32-bit draws leaves a half word buffered
                assert rng.integers(0, 9, size=3).tolist() == ref.integers(0, 9, size=3).tolist()
            draws = Draws(rng, buffered=mid_word)
            rows = draws.rows(n, m, k)
            assert rows.dtype == np.int64 and rows.shape == (k, m)
            assert np.array_equal(rows, tiled_integers(ref, n, m, k))
            check_draws_leave(draws, ref)

    # 2**31 + 12345 and 3 * 2**30 + 7 redraw about half and a quarter of
    # all draws; k covers odd and even counts on both sides of a batch
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 200, 2**31 + 12345, 3 * 2**30 + 7])
    @pytest.mark.parametrize("k", [1, 2, 3, 256, 257, 4096])
    @pytest.mark.parametrize("start", [False, True, None])
    def test_below_replays_integers(self, n, k, start):
        redraws = 0
        seeds = range(4 if k > 200 else 40)
        for seed in seeds:
            rng, ref, lemire = rng_for(seed, n), rng_for(seed, n), rng_for(seed, n)
            if start is not False:
                # one 32-bit draw leaves a half word buffered, which a Draws
                # is told of (True) or learns from the state (None)
                for g in (rng, ref, lemire):
                    g.integers(0, 9)
            draws = Draws(rng, buffered=start)
            got = draws.below(n, k)
            assert got.dtype == np.uint32 and got.shape == (k,)
            assert got.tolist() == ref.integers(0, n, size=k).tolist()
            if n > 2**31:
                redraws += lemire_reference(lemire, np.zeros(k, dtype=np.int64), n)[1]
            check_draws_leave(draws, ref)
            assert rng.integers(0, 2**32) == ref.integers(0, 2**32)
        if n > 2**31:
            # the redraws must have run: at least one in eight draws
            assert redraws >= len(seeds) * k / 8

    def test_below_past_the_32_bit_range_keeps_integers(self):
        # at 2**32 the rule keeps every draw as it is; above it numpy draws
        # by another rule, and below draws through numpy
        for n in (2**32, 2**32 + 1, 3 * 2**40):
            rng, ref = rng_for(5, 1), rng_for(5, 1)
            draws = Draws(rng, buffered=False)
            for k in (1, 3, 64):
                got = draws.below(n, k)
                assert got.tolist() == ref.integers(0, n, size=k).tolist()
            check_draws_leave(draws, ref)

    @pytest.mark.parametrize("m,k", [(2, 7), (3, 50), (5, 41), (8, 64)])
    @pytest.mark.parametrize("mid_word", [False, True])
    def test_rejection_heavy_bounds(self, m, k, mid_word):
        # spans just above 3 * 2**30 redraw about one draw in four
        n = 3 * 2**30 + m
        redraws = 0
        for seed in range(8):
            rng, ref, lemire = rng_for(seed, m), rng_for(seed, m), rng_for(seed, m)
            if mid_word:
                for g in (rng, ref, lemire):
                    g.integers(0, 9)
            draws = Draws(rng, buffered=mid_word)
            rows = draws.rows(n, m, k)
            expected, extra = lemire_reference(lemire, np.arange(k * m) % m, n)
            redraws += extra
            assert rows.ravel().tolist() == expected
            assert np.array_equal(rows, tiled_integers(ref, n, m, k))
            assert philox_state(lemire) == philox_state(ref)
            check_draws_leave(draws, ref)
        # a value takes 1/3 of a redraw on average; require an eighth
        assert redraws > 8 * k * m / 8

    def test_buffered_flag_follows_a_sequence_of_draws(self):
        # what a run draws: its start, then batches of rows of several
        # sizes; every draw, one-bound ones included, keeps the flag known
        calls = [(100, 25, 81), (100, 25, 64), (100, 1, 33), (100, 3, 5), (100, 3, 7),
                 (3 * 2**30 + 3, 3, 41), (100, 100, 3), (1, 1, 5), (2, 2, 1), (64, 7, 9)]
        for seed in range(20):
            rng, ref = rng_for(seed, 77), rng_for(seed, 77)
            draws = Draws(rng, buffered=False)
            for n, m, k in calls:
                assert np.array_equal(draws.rows(n, m, k), tiled_integers(ref, n, m, k))
                assert philox_state(rng) == philox_state(ref)
                assert draws.buffered is bool(ref.bit_generator.state["has_uint32"])
            check_draws_leave(draws, ref)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 8, 11])
    @pytest.mark.parametrize("start", [None, 0, 1])
    def test_u32_replays_the_32_bit_draws(self, count, start):
        # from a stream with or without a half word, or an unknown one
        for seed in range(10):
            rng, ref = rng_for(seed, count), rng_for(seed, count)
            for g in (rng, ref):
                g.integers(0, 9, size=start or 0)
            draws = Draws(rng, buffered=None if start is None else bool(start))
            u = draws.u32(count)
            assert u.dtype == np.uint32
            assert u.tolist() == ref.integers(0, 2**32, size=count, dtype=np.uint32).tolist()
            check_draws_leave(draws, ref)

    @pytest.mark.parametrize("bit_gen", [np.random.MT19937, np.random.PCG64, np.random.SFC64])
    def test_other_bit_generators_keep_integers(self, bit_gen):
        rng, ref = np.random.Generator(bit_gen(3)), np.random.Generator(bit_gen(3))
        draws = Draws(rng, buffered=False)
        for n, m, k in [(100, 25, 81), (100, 1, 9), (7, 7, 3), (3 * 2**30 + 2, 2, 51)]:
            assert np.array_equal(draws.rows(n, m, k), tiled_integers(ref, n, m, k))
            assert draws.below(n, k).tolist() == ref.integers(0, n, size=k).tolist()
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    @pytest.mark.parametrize("n", [70, 130, 1000])
    @pytest.mark.parametrize("start", [None, 0, 1])
    def test_samplers_through_draws_replay_the_generator(self, n, start):
        # a Draws passed to the samplers draws what the bare generator draws,
        # from a stream with or without a half word (or an unknown one)
        for seed in range(10):
            rng, ref = rng_for(seed, n), rng_for(seed, n)
            for g in (rng, ref):
                g.integers(0, 9, size=start or 0)
            draws = Draws(rng, buffered=None if start is None else bool(start))
            for ones in (1, 5, n // 2 + 1):
                got = sample_bitstring(n, FixedOnes(ones), draws)
                assert got == sample_bitstring(n, FixedOnes(ones), ref)
            assert sample_bitstring(n, Uniform(), draws) == sample_bitstring(n, Uniform(), ref)
            for ell, k in [(1, 20), (2, 17), (n // 64 + 1, 2), (n // 3, 5), (n, 3)]:
                rows = sample_uniform_subset(n, ell, draws, size=k)
                assert np.array_equal(rows, sample_uniform_subset(n, ell, ref, size=k))
                single = sample_uniform_subset(n, ell, draws)
                assert np.array_equal(single, sample_uniform_subset(n, ell, ref))
            check_draws_leave(draws, ref)


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
            assert x.bits == int.from_bytes(words.tobytes(), "little")
            assert x.ones == int(np.bitwise_count(words).sum())
        assert rng.integers(2**63) == ref_rng.integers(2**63)

    @pytest.mark.parametrize("bit_gen", [np.random.MT19937, np.random.PCG64, np.random.SFC64])
    @pytest.mark.parametrize("n", [1, 64, 130])
    def test_uniform_under_other_bit_generators_keeps_the_32_bit_draw(self, bit_gen, n):
        # MT19937's raw words are 32 bits wide and its state has no buffered
        # half; every generator but Philox gets the 32-bit draw of earlier
        # releases
        ref_rng, rng = np.random.Generator(bit_gen(21)), np.random.Generator(bit_gen(21))
        n_words = (n + 63) // 64
        for _ in range(3):
            words = ref_rng.integers(0, 2**32, size=2 * n_words, dtype=np.uint32).view(np.uint64)
            if n % 64:
                words[-1] &= np.uint64((1 << (n % 64)) - 1)
            x = sample_bitstring(n, Uniform(), rng)
            assert x.bits == int.from_bytes(words.tobytes(), "little")
            assert x.ones == int(np.bitwise_count(words).sum())
        assert rng.integers(2**63) == ref_rng.integers(2**63)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_fresh_start_draws_the_32_bit_words(self, n):
        # a stream nothing has drawn from holds no half word: a Draws that
        # records so skips the state read and must draw, and leave the
        # stream, as the 32-bit draw does
        ref_rng, rng = rng_for(22, n), rng_for(22, n)
        n_words = (n + 63) // 64
        words = ref_rng.integers(0, 2**32, size=2 * n_words, dtype=np.uint32).view(np.uint64)
        if n % 64:
            words[-1] &= np.uint64((1 << (n % 64)) - 1)
        draws = Draws(rng, buffered=False)
        x = sample_bitstring(n, Uniform(), draws)
        assert x.bits == int.from_bytes(words.tobytes(), "little")
        assert draws.buffered is False
        assert philox_state(rng) == philox_state(ref_rng)
        assert rng.integers(2**63) == ref_rng.integers(2**63)

    def test_fresh_stream_stays_fresh_through_nonoptimal_retries(self):
        # a raw-word draw buffers nothing, so every retry may skip the read
        fit = MajorityFitness(4, 1)
        for stream in range(20):
            ref_rng, rng = rng_for(23, stream), rng_for(23, stream)
            expected = sample_bitstring(4, UniformNonOptimal(fit), ref_rng)
            draws = Draws(rng, buffered=False)
            assert sample_bitstring(4, UniformNonOptimal(fit), draws) == expected
            assert draws.buffered is False
            assert philox_state(rng) == philox_state(ref_rng)

    @pytest.mark.parametrize("bit_gen", [np.random.MT19937, np.random.PCG64, np.random.SFC64])
    def test_fresh_flag_keeps_the_32_bit_draw_off_philox(self, bit_gen):
        # a Draws that records no buffered half word reads raw words only
        # from Philox
        ref_rng, rng = np.random.Generator(bit_gen(24)), np.random.Generator(bit_gen(24))
        words = ref_rng.integers(0, 2**32, size=4, dtype=np.uint32).view(np.uint64)
        words[-1] &= np.uint64((1 << 2) - 1)
        x = sample_bitstring(66, Uniform(), Draws(rng, buffered=False))
        assert x.bits == int.from_bytes(words.tobytes(), "little")
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
        # the blocked objective is scored through FitnessFunction.value
        for fit in (MajorityFitness(10, 2), NeutralityFitness(OneMax(3), 2)):
            rng = rng_for(10)
            for _ in range(200):
                x = sample_bitstring(fit.n, UniformNonOptimal(fit), rng)
                assert fit.value(x) < fit.max_value

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
        # log C(n, k) as the uniform-init weights of the oracle build it
        def log_binomial(n, k):
            return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

        assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-14)
        assert log_binomial(10, 0) == 0.0

    def test_hypergeom_small_case(self):
        assert overlap_support(4, 2, 2) == range(0, 3)
        assert hypergeom_pmf(4, 2, 2) == pytest.approx([1 / 6, 2 / 3, 1 / 6], rel=1e-12)

    def test_hypergeom_normalization(self):
        n, j, ell = 100, 37, 13
        row = hypergeom_pmf(n, j, ell)
        assert len(row) == len(overlap_support(n, j, ell))
        assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_hypergeom_support_errors(self):
        with pytest.raises(ValueError):
            hypergeom_pmf(4, 5, 2)

    @pytest.mark.parametrize("n", [1, 2, 63, 4096, 100_000])
    def test_hypergeom_row_equals_per_entry_quotients(self, n):
        # the row steps C(j, a) and C(n - j, ell - a) by exact integer
        # recurrences, so every entry is the same correctly rounded quotient
        # as the direct binomials.  At n = 100000 a row of ell = n/2 with a
        # long support costs minutes, so only its two-entry rows j = 1 and
        # j = n - 1 are checked (no kernel that large fits the band limit).
        rng = np.random.default_rng(n)
        for ell in sorted({e for e in (1, 2, 20, 41, n // 2, n) if 1 <= e <= n}):
            total = math.comb(n, ell)
            edges = {0, 1, ell - 1, ell, n - ell, n - ell + 1, n - 1, n}
            picks = rng.integers(0, n + 1, size=4).tolist()
            for j in sorted({j for j in edges if 0 <= j <= n} | set(picks)):
                support = overlap_support(n, j, ell)
                if n == 100_000 and ell == n // 2 and len(support) != 2:
                    continue
                expected = [math.comb(j, a) * math.comb(n - j, ell - a) / total for a in support]
                assert hypergeom_pmf(n, j, ell) == expected, (n, j, ell)

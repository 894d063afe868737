import dataclasses
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import length_hint

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateaulab import ea
from plateaulab.core import (
    BitString,
    Draws,
    FixedOnes,
    Point,
    RngStream,
    Uniform,
    UniformNonOptimal,
    flip_bits,
    sample_bitstring,
    sample_uniform_subset,
)
from plateaulab.ea import (
    _BATCH,
    _BATCH_FIRST,
    RestartStats,
    RlsMutation,
    RunConfig,
    RunResult,
    _index_batches,
    _subset_batches,
    extract_restart_stats,
    run,
)
from plateaulab.fitness import (
    BlockMajorityFitness,
    FitnessFunction,
    MajorityFitness,
    NeutralityFitness,
    OneMax,
    PlateauFitness,
)
from plateaulab.oracle import bd_hitting_times, plateau_chain


def hamming(a, b):
    return sum(a.bit(i) != b.bit(i) for i in range(a.n))


class TestMutate:
    def test_full_flip_is_complement(self):
        x = BitString.from01("10110")
        y = flip_bits(x, sample_uniform_subset(5, 5, RngStream(1).generator()))
        assert y == x.complement()

    def test_single_flip_frequencies(self):
        rng = RngStream(2).generator()
        x = BitString.from01("00")
        counts = {"10": 0, "01": 0}
        draws = 10_000
        for _ in range(draws):
            counts[flip_bits(x, sample_uniform_subset(2, 1, rng)).to01()] += 1
        assert abs(counts["10"] / draws - 0.5) < 0.02

    def test_ell_exceeding_length(self):
        with pytest.raises(ValueError):
            sample_uniform_subset(2, 3, RngStream(3).generator())
        with pytest.raises(ValueError):
            RlsMutation(0)

    @given(st.data())
    @settings(max_examples=80)
    def test_distance_is_exactly_ell(self, data):
        n = data.draw(st.integers(1, 120))
        ell = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32))
        bits = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
        x = BitString.from01(bits)
        y = flip_bits(x, sample_uniform_subset(n, ell, RngStream(seed).generator()))
        assert hamming(x, y) == ell
        assert x.ones == sum(x.bit(i) for i in range(n))


class TestRunConfigValidation:
    def test_ell_vs_arity(self):
        with pytest.raises(ValueError):
            RunConfig(MajorityFitness(4, 1), RlsMutation(5), Uniform(), 1)

    def test_cap_positive(self):
        with pytest.raises(ValueError):
            RunConfig(MajorityFitness(4, 1), RlsMutation(1), Uniform(), 1, max_iters=0)

    def test_engine_needs_level_or_blocked_fitness(self):
        class Parity(FitnessFunction):
            n, max_value = 4, 1

        with pytest.raises(ValueError, match="no engine can run it"):
            RunConfig(Parity(), RlsMutation(1), Uniform(), 1)

    @pytest.mark.parametrize("ones", [-1, 5])
    def test_fixed_ones_within_length(self, ones):
        # a level run starts at the count itself, without a draw to check it
        with pytest.raises(ValueError, match="exceeds length"):
            RunConfig(MajorityFitness(4, 1), RlsMutation(1), FixedOnes(ones), 1)

    def test_restart_stats_need_majority(self):
        with pytest.raises(ValueError):
            RunConfig(
                OneMax(4), RlsMutation(1), Uniform(), 1, record_restart_stats=True
            )

    def test_nonoptimal_start_needs_a_nonoptimal_level(self):
        # r=0 makes every plateau level optimal: no start could be drawn
        fit = PlateauFitness(10, 0)
        with pytest.raises(ValueError, match="every level is optimal"):
            RunConfig(fit, RlsMutation(1), UniformNonOptimal(fit), 1)
        RunConfig(fit, RlsMutation(1), Uniform(), 1)

    @pytest.mark.parametrize("index", [-1, 2**64])
    @pytest.mark.parametrize("spare", [False, True])
    def test_run_index_within_key_range(self, index, spare, monkeypatch):
        # a process's first run builds its stream, a later one resets a spare
        pool = [Draws(RngStream(1).generator(), buffered=False)] if spare else []
        monkeypatch.setattr(ea, "_SPARE_GENERATORS", pool)
        cfg = RunConfig(MajorityFitness(10, 1), RlsMutation(1), Uniform(), 1)
        with pytest.raises(ValueError, match=r"stream_index must lie in \[0, 2\*\*64\)"):
            run(cfg, index)
        assert run(cfg, 2**64 - 1).runtime == reference_run(cfg, 2**64 - 1)[0]

    def test_restart_stats_need_a_surplus(self):
        # with r=0 there is no plateau to cross: rejected before any run draws
        with pytest.raises(ValueError, match="r >= 1, got r=0"):
            RunConfig(
                MajorityFitness(10, 0), RlsMutation(1), Uniform(), 1, record_restart_stats=True
            )


class TestRun:
    def test_optimal_start_is_zero(self):
        cfg = RunConfig(MajorityFitness(8, 0), RlsMutation(1), FixedOnes(4), 1)
        assert run(cfg, 0).runtime == 0

    def test_point_start(self):
        cfg = RunConfig(MajorityFitness(4, 2), RlsMutation(1), Point("1111"), 1)
        assert run(cfg, 0).runtime == 0

    def test_mean_matches_three_state_chain(self):
        # E from one 1 on the n=2, r=1 objective is exactly 3
        total = 0
        runs = 100_000
        cfg = RunConfig(MajorityFitness(2, 1), RlsMutation(1), FixedOnes(1), 77)
        for i in range(runs):
            total += run(cfg, i).runtime
        mean = total / runs
        # the hitting time from one 1 has variance 8, so sd = 2.83
        assert abs(mean - 3.0) < 3 * 2.83 / math.sqrt(runs) + 0.02

    def test_plateau_mean_matches_oracle(self):
        n, r, runs = 4, 2, 20_000
        exact = bd_hitting_times(plateau_chain(n, r))[0]
        values = []
        cfg = RunConfig(PlateauFitness(n, r), RlsMutation(1), FixedOnes(2), 99)
        for i in range(runs):
            values.append(run(cfg, i).runtime)
        arr = np.asarray(values, dtype=float)
        se = arr.std(ddof=1) / math.sqrt(runs)
        assert abs(arr.mean() - exact) < 3 * se

    def test_reproducible_bit_for_bit(self):
        cfg = RunConfig(
            MajorityFitness(30, 3),
            RlsMutation(2),
            Uniform(),
            1234,
            record_trajectory=True,
        )
        a, b = run(cfg, 5), run(cfg, 5)
        assert a.runtime == b.runtime
        assert a.init_ones == b.init_ones
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_censoring(self):
        # crossing the r=5 plateau from the center within 3 steps is impossible
        cfg = RunConfig(
            PlateauFitness(20, 5),
            RlsMutation(1),
            FixedOnes(10),
            1,
            max_iters=3,
            record_trajectory=True,
        )
        res = run(cfg, 0)
        assert res.censored and res.runtime is None
        assert len(res.trajectory) == 4  # initial entry plus one per iteration

    def test_elitism_along_trajectory(self):
        cfg = RunConfig(
            OneMax(40), RlsMutation(1), Uniform(), 321, record_trajectory=True
        )
        res = run(cfg, 0)
        assert res.runtime is not None
        assert np.all(np.diff(res.trajectory) >= 0)
        assert len(res.trajectory) == res.runtime + 1  # one entry per iteration

    def test_every_pre_hit_proposal_accepted_on_majority(self):
        # below the threshold both fitness values are 0, so acceptance uses >=
        # and the ones count changes at every single-bit step
        cfg = RunConfig(
            MajorityFitness(30, 3), RlsMutation(1), FixedOnes(10), 5,
            record_trajectory=True,
        )
        res = run(cfg, 0)
        steps = np.diff(res.trajectory)
        assert np.all(np.abs(steps) == 1)

    @pytest.mark.parametrize("ell", [2, 5])
    def test_multi_flip_mean_matches_kernel_oracle(self, ell):
        from plateaulab.core import Uniform as UniformInit
        from plateaulab.oracle import (
            expected_under_init,
            kernel_hitting_times,
            rlsl_kernel,
        )

        n, r, runs = 30, 3, 20_000
        fit = MajorityFitness(n, r)
        kernel = rlsl_kernel(n, ell, fit.level_value)
        exact = expected_under_init(kernel_hitting_times(kernel), n, UniformInit())
        values = []
        cfg = RunConfig(fit, RlsMutation(ell), Uniform(), 4242 + ell)
        for i in range(runs):
            values.append(run(cfg, i).runtime)
        arr = np.asarray(values, dtype=float)
        se = arr.std(ddof=1) / math.sqrt(runs)
        assert abs(arr.mean() - exact) < 3 * se

    def test_subset_path_on_neutral_fitness(self):
        fit = NeutralityFitness(OneMax(4), 3)
        cfg = RunConfig(fit, RlsMutation(2), Uniform(), 42, max_iters=200_000,
                        record_trajectory=True)
        res = run(cfg, 0)
        assert res.runtime is not None
        # elitism in fitness space, checked by re-evaluating the final state
        assert res.trajectory[-1] <= fit.n

    def test_block_fitness_run(self):
        fit = BlockMajorityFitness(1, 3, 4)
        cfg = RunConfig(fit, RlsMutation(1), Uniform(), 9, max_iters=100_000)
        res = run(cfg, 0)
        assert res.runtime is not None


def kept_positions(data, n):
    """The byte rule over ``data`` in plain Python: each byte b below
    256 - 256 % n is the position b % n, and the others are dropped."""
    return bytes(b % n for b in data if b < 256 - 256 % n)


def byte_rule(rng, n):
    """Single-flip positions at n <= 256: the byte rule over
    ``Generator.bytes`` batches of 256 bytes, then twice as many each
    time up to 4096."""
    size = 256
    while True:
        yield from kept_positions(rng.bytes(size), n)
        size = min(2 * size, 4096)


def reference_flips(rng, n):
    """The single-flip positions of a run drawing from ``rng``: the byte
    rule up to n = 256, past it ``integers(0, n)``, in blocks of
    ``_BATCH``, which the engines' growing batches replay exactly."""
    if n <= 256:
        return byte_rule(rng, n)
    return (i for _ in itertools.count() for i in rng.integers(0, n, size=_BATCH).tolist())


def reference_run(cfg, run_index):
    """The elitist loop spelled out: every proposal is a new BitString scored
    by ``fit.value``.  It draws single flips from ``reference_flips``, and
    for ell > 1 one subset per proposal.

    A level objective's proposal flips an incumbent whose ones sit at
    positions 0..ones-1, as the count engine reads it: a fixed ones count
    draws nothing, and above n/2 a proposal draws the n-ell positions it
    keeps and flips the rest.
    """
    fit, ell, cap = cfg.fitness, cfg.mutation.ell, cfg.max_iters
    n, level = fit.n, fit.level_symmetric
    rng = RngStream(cfg.cell_seed, run_index).generator()
    if level and isinstance(cfg.init, FixedOnes):
        x = BitString.from_indices(n, range(cfg.init.ones))
    else:
        x = sample_bitstring(n, cfg.init, rng)
    fx = fit.value(x)
    traj = [x.ones]
    if fx == fit.max_value:
        return 0, traj
    t = 0
    singles = reference_flips(rng, n)
    while t < cap:
        if ell == 1:
            flips = [[next(singles)]]
        elif level and 2 * ell > n:
            kept = sample_uniform_subset(n, n - ell, rng).tolist() if ell < n else []
            flips = [sorted(set(range(n)) - set(kept))]
        else:
            flips = [sample_uniform_subset(n, ell, rng)]
        for idx in flips:
            t += 1
            if level:
                y = BitString.from_indices(n, set(range(x.ones)).symmetric_difference(idx))
            else:
                y = flip_bits(x, idx)
            fy = fit.value(y)
            if fy >= fx:
                x, fx = y, fy
            traj.append(x.ones)
            if fx == fit.max_value:
                return t, traj
    return None, traj


def check_batch_ends(fit, i, cap, init=Uniform(), seed=7):
    """Run i of the single-flip cell on ``fit`` from ``init`` (master seed
    ``seed``) under ``cap``, with and without a recorded trajectory,
    against the reference loop: the same runtime, and one trajectory
    entry per proposal."""
    cfg = RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap, record_trajectory=True)
    runtime, traj = reference_run(cfg, i)
    res = run(cfg, i)
    assert res.runtime == runtime
    assert res.trajectory.tolist() == traj
    assert len(res.trajectory) == (cap if runtime is None else runtime) + 1
    bare = RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap)
    assert run(bare, i).runtime == runtime
    if isinstance(fit, MajorityFitness):
        # restart statistics walk the phase tables and return no trajectory
        stats = RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap,
                          record_restart_stats=True)
        got = run(stats, i)
        assert got.runtime == runtime and got.trajectory is None
        assert got.restart == extract_restart_stats(traj, fit.n, fit.r)


def batch_ends(cfg, i):
    """The proposal counts at which the first two single-flip batches of
    run i of ``cfg`` end, replayed from the run's stream."""
    fit = cfg.fitness
    draws = Draws(RngStream(cfg.cell_seed, i).generator(), buffered=False)
    if not (fit.level_symmetric and isinstance(cfg.init, FixedOnes)):
        sample_bitstring(fit.n, cfg.init, draws)
    batches = _index_batches(fit.n, draws, ea.DEFAULT_CAP)
    first = len(next(batches))
    return first, first + len(next(batches))


def proposal_at(ends, label):
    """The proposal a pinned case names by its batch boundary: 256 is the
    last of a run's first batch, which reads 256 bytes of the stream up
    to n = 256 and draws 256 indices past it, and 768 the last of its
    second (768 bytes or indices in all); 255 and 257 are the proposals
    either side of 256, and 1 the first.  Up to n = 256 the byte rule
    drops some bytes, so there the ends (``batch_ends``) vary by run."""
    first, second = ends
    return {1: 1, 255: first - 1, 256: first, 257: first + 1, 768: second}[label]


# master seeds of the pinned single-flip runs, by case and run index: the
# first seed whose run hits, or exits a phase, on the batch boundary its
# case names (at n = 256, also one whose first batch, or the next run's,
# holds position 255 within its first 255 positions); every other run has
# seed 7
PINNED_SEEDS = {
    ("majority", 348): 885, ("majority", 439): 311, ("majority", 1869): 281,
    ("plateau", 148): 969, ("plateau", 1065): 238, ("onemax", 422): 160,
    ("plateau-middle", 11): 653, ("plateau-middle", 2362): 2392,
    ("onemax-k7-20", 164): 396, ("onemax-k7-20", 33): 416, ("majority-k5", 3018): 7272,
    ("first-block-k6", 627): 1148, ("last-block-k7", 9810): 468,
    ("wmodel-1", 2219): 651, ("wmodel-1", 1330): 3551, ("wmodel-10", 537): 28,
    ("wmodel-10", 31019): 44409, ("wmodel-20", 1538): 415, ("wmodel-20", 5774): 4980,
    ("first-block-k128", 5): 86, ("first-block-k128", 6): 4788,
    ("last-block-k128", 9): 5477, ("last-block-k128", 10): 23828,
    ("whole-k256", 3): 1135, ("whole-k256", 4): 390397,
    ("majority-254", 298): 64, ("majority-256", 357): 1450,
    ("hit", 477): 421, ("hit", 2566): 3293, ("return", 708): 251, ("return", 4440): 1774,
}


class TestIndexBatches:
    @pytest.mark.parametrize("n", [2, 3, 100, 2**31 - 1, 2**32 - 5])
    def test_split_calls_replay_one_call(self, n):
        splits = [1, 3, 5, 63, 7, 129, 1, 31]
        whole_rng, split_rng = RngStream(31, n).generator(), RngStream(31, n).generator()
        whole = whole_rng.integers(0, n, size=sum(splits))
        parts = np.concatenate([split_rng.integers(0, n, size=k) for k in splits])
        same = np.array_equal(parts, whole)
        same = same and split_rng.integers(0, n) == whole_rng.integers(0, n)
        assert same, (
            f"integers(0, {n}) split into calls of {splits} no longer returns what "
            "one call does; the ell=1 engines draw their indices in growing "
            "batches and assume it does"
        )

    # caps inside the first batch (about 200 positions at n = 100, from 256
    # bytes), inside the second (from 512 bytes) and the third
    @pytest.mark.parametrize(
        "cap", [1, 63, 64, 65, 191, 192, 193, 255, 256, 257, 767, 768, 769, 20_000]
    )
    def test_batches_double_up_to_cap(self, cap):
        draws = Draws(RngStream(8).generator(), buffered=False)
        batches = list(_index_batches(100, draws, cap))
        sizes = [len(b) for b in batches]
        assert sum(sizes) == cap
        ref = RngStream(8).generator()
        full = [kept_positions(ref.bytes(min(_BATCH_FIRST << i, _BATCH)), 100)
                for i in range(len(sizes))]
        assert sizes[:-1] == [len(b) for b in full[:-1]] and sizes[-1] <= len(full[-1])
        assert b"".join(batches) == b"".join(full)[:cap]
        # each batch reads whole words' worth of 32-bit draws, so the run's
        # record of the half word holds, and the stream stops where the
        # reference's last batch stops
        assert draws.buffered is False
        assert draws.u32(3).tolist() == ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist()

    # n divides 256 (no byte dropped) at 1, 2 and 256; at 130 nearly half
    # the bytes are dropped.  A blocked ``ones=J`` start can leave a half
    # word buffered, which the first batch's bytes then begin with
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 130, 200, 255, 256])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("cut", ["1", "first-1", "first", "first+1", "second", "second+1"])
    def test_byte_rule_replays_reference(self, n, buffered, cut):
        rng, ref, probe = (RngStream(12, n).generator() for _ in range(3))
        draws = Draws(rng, buffered=False)
        if buffered:
            draws.u32(1)
            assert draws.buffered
            for g in (ref, probe):
                g.integers(0, 2**32, dtype=np.uint32)
        first = len(kept_positions(probe.bytes(256), n))
        second = len(kept_positions(probe.bytes(512), n))
        cap, sizes = {
            "1": (1, [1]),
            "first-1": (first - 1, [first - 1]),
            "first": (first, [first]),
            "first+1": (first + 1, [first, 1]),
            "second": (first + second, [first, second]),
            "second+1": (first + second + 1, [first, second, 1]),
        }[cut]
        batches = list(ea._byte_batches(n, draws, cap))
        assert all(type(b) is bytes for b in batches)
        assert [len(b) for b in batches] == sizes
        assert b"".join(batches) == bytes(itertools.islice(byte_rule(ref, n), cap))
        # byte_rule read its batch only as its last position was taken,
        # and so did the generator: both streams stop after the same bytes
        assert draws.buffered is buffered
        assert draws.u32(3).tolist() == ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist()

    # Pearson's chi-square over a million positions against the uniform law
    # on [0, n), n - 1 degrees of freedom, at size 1e-4: a uniform rule
    # fails it for one stream in 10,000.  A rule that kept byte
    # 256 - 256 % n would give position 0 half as much mass again at
    # n = 100 and twice as much at n = 130
    @pytest.mark.parametrize("n", [100, 130])
    def test_byte_rule_is_uniform(self, n):
        from scipy.stats import chi2

        size = 1_000_000
        draws = Draws(RngStream(2026, n).generator(), buffered=False)
        got = b"".join(ea._byte_batches(n, draws, size))
        counts = np.bincount(np.frombuffer(got, np.uint8), minlength=n)
        assert len(got) == size and len(counts) == n
        expected = size / n
        stat = float(((counts - expected) ** 2).sum() / expected)
        assert stat < chi2.isf(1e-4, df=n - 1)

    # past n = 256 a batch is what integers(0, n) draws, 256 indices first
    @pytest.mark.parametrize("n", [257, 258, 1000])
    def test_past_a_byte_batches_replay_integers(self, n):
        draws = Draws(RngStream(8, n).generator(), buffered=False)
        batches = _index_batches(n, draws, 1000)
        first = next(batches)
        assert isinstance(first, np.ndarray) and len(first) == _BATCH_FIRST
        got = np.concatenate([first, *batches]).tolist()
        assert got == RngStream(8, n).generator().integers(0, n, size=1000).tolist()


LEVEL = {
    "majority": MajorityFitness(60, 9),
    "plateau": PlateauFitness(60, 9),
    "onemax": OneMax(60),
}
LEVEL_INITS = {
    "uniform": Uniform(),
    "ones": FixedOnes(25),
    # one step below the majority threshold, so some runs end at t=1
    "ones-near": FixedOnes(38),
    "point": Point("0011" * 15),
}


PLATEAU_MIDDLE = PlateauFitness(100, 10)


class TestLevelEngine:
    # caps inside the first ell=1 batch (256 bytes: about 225 positions at
    # n = 60) and inside the second
    @pytest.mark.parametrize("name", sorted(LEVEL))
    @pytest.mark.parametrize("init", sorted(LEVEL_INITS))
    # above n/2 a proposal draws the n-ell positions it keeps; at ell=n none
    @pytest.mark.parametrize("ell_kind", ["1", "2", "n/2", "n/2+1", "n-1", "n"])
    @pytest.mark.parametrize("cap", [1, 63, 64, 65, 191, 192, 193, 255, 256, 257, 1500])
    def test_matches_reference_loop(self, name, init, ell_kind, cap):
        fit = LEVEL[name]
        n = fit.n
        ell = {"1": 1, "2": 2, "n/2": n // 2, "n/2+1": n // 2 + 1, "n-1": n - 1,
               "n": n}[ell_kind]
        cfg = RunConfig(fit, RlsMutation(ell), LEVEL_INITS[init], 7,
                        max_iters=cap, record_trajectory=True)
        for i in range(3):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj

    # (objective, run index, hit) of uniform-start single-flip runs (seeds
    # in PINNED_SEEDS) whose hit is the last position of the first batch,
    # the first of the next, or the last of the second, named as in
    # proposal_at, as are the caps; unrecorded, a hit on a batch's last
    # position ends the batch on the stop tables' n + 1 + j, j the optimum
    @pytest.mark.parametrize(
        "name,i,hit",
        [("majority", 348, 256), ("majority", 439, 257), ("majority", 1869, 768),
         ("plateau", 148, 256), ("plateau", 1065, 257), ("onemax", 422, 256)],
    )
    @pytest.mark.parametrize("cap", [1, 255, 256, 257, 768])
    def test_batch_ends_match_reference_loop(self, name, i, hit, cap):
        fit = LEVEL[name]
        seed = PINNED_SEEDS[name, i]
        pinned = RunConfig(fit, RlsMutation(1), Uniform(), seed)
        ends = batch_ends(pinned, i)
        assert reference_run(pinned, i)[0] == proposal_at(ends, hit)
        check_batch_ends(fit, i, proposal_at(ends, cap), seed=seed)

    # the plateau from its middle, between optima on both sides: unrecorded
    # runs exit through the stop tables below or above, or at the cap.  The
    # pinned runs hit on the last position of the first batch and of the
    # second (as in proposal_at); a cap equal to the hit ends the last
    # batch on it
    @pytest.mark.parametrize("i,hit", [(11, 256), (2362, 768)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_two_sided_batch_ends_match_reference_loop(self, i, hit, offset):
        seed = PINNED_SEEDS["plateau-middle", i]
        pinned = RunConfig(PLATEAU_MIDDLE, RlsMutation(1), FixedOnes(50), seed)
        hit = proposal_at(batch_ends(pinned, i), hit)
        assert reference_run(pinned, i)[0] == hit
        check_batch_ends(PLATEAU_MIDDLE, i, hit + offset, FixedOnes(50), seed=seed)

    # from the plateau's middle on the stop rows, and past n = 256 on the
    # stop tables' (lower, higher) pair
    @pytest.mark.parametrize("cap", [50, 256, 257, 2000])
    def test_two_sided_exits_match_reference_loop(self, cap):
        for fit in (PLATEAU_MIDDLE, PlateauFitness(300, 20)):
            middle = fit.n // 2
            cfg = RunConfig(fit, RlsMutation(1), FixedOnes(middle), 7, max_iters=cap)
            sides = set()
            for i in range(40):
                runtime, traj = reference_run(cfg, i)
                assert run(cfg, i).runtime == runtime
                if runtime is not None:
                    sides.add(traj[-1] > middle)
            assert cap < 256 or sides == {False, True}, fit

    # recorded single flips on the two smallest level objectives: at n = 1
    # the flip set is the whole string (m = 0), so the loop draws nothing;
    # at n = 2 a proposal reads one byte-rule position.  Cap 1 censors the
    # runs that need two proposals
    @pytest.mark.parametrize("fit", [OneMax(1), MajorityFitness(2, 1)], ids=repr)
    @pytest.mark.parametrize("init", [Uniform(), FixedOnes(0)], ids=repr)
    @pytest.mark.parametrize("cap", [1, 2, 300])
    def test_smallest_recorded_single_flips(self, fit, init, cap):
        cfg = RunConfig(fit, RlsMutation(1), init, 7, max_iters=cap, record_trajectory=True)
        runtimes = set()
        for i in range(20):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj
            runtimes.add(runtime)
        if fit.n == 2 and cap == 300:
            # from no ones some runs step back to 0 before they hit
            assert len(runtimes - {None, 0, 1}) > 1

    # n=1000: rejection rows (ell <= 15) and lockstep shuffles of 8, 16,
    # 32, then 64 rows (ell >= 16); n=8200: rejection rows and lockstep
    # shuffles of 1, 2, ..., 32, then 63 rows.  The caps cross batch ends
    @pytest.mark.parametrize(
        "n,ell,r",
        [(1000, 2, 8), (1000, 15, 16), (1000, 16, 16), (1000, 100, 16), (8200, 2, 8),
         (8200, 200, 60)],
    )
    @pytest.mark.parametrize("init", ["uniform", "half"])
    @pytest.mark.parametrize("cap", [1, 8, 9, 17, 56, 57, 63, 64, 120, 121, 126, 127, 300])
    def test_large_n_matches_reference_loop(self, n, ell, r, init, cap):
        start = Uniform() if init == "uniform" else FixedOnes(n // 2)
        cfg = RunConfig(MajorityFitness(n, r), RlsMutation(ell), start, 7,
                        max_iters=cap, record_trajectory=True)
        for i in range(3):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj


class TestSubsetBatches:
    # (n, ell, batch sizes up to the largest): n=1000 draws rejection rows
    # up to ell=15 and lockstep shuffles from ell=16; n=8200 draws rejection
    # rows up to ell=128 and shuffles from ell=129.  A shuffle batch starts
    # at the plain 8192-position cap (8 rows, one row) and doubles up to
    # 64 rows, or as many as fit 64 * 8192 positions (63)
    @pytest.mark.parametrize(
        "n,ell,full",
        [(1000, 15, [16, 32, 64, 128, 256, 512, 546]), (1000, 16, [8, 16, 32, 64]),
         (1000, 500, [8, 16, 32, 64]), (8200, 128, [16, 32, 64]),
         (8200, 129, [1, 2, 4, 8, 16, 32, 63]), (8200, 1000, [1, 2, 4, 8, 16, 32, 63])],
    )
    @pytest.mark.parametrize("cap", [1, 8, 9, 24, 25, 56, 57, 63, 64, 120, 121, 126, 127, 200])
    def test_sizes_and_single_draw_replay(self, n, ell, full, cap):
        batches = list(_subset_batches(n, ell, RngStream(5, n).generator(), cap))
        sizes = [len(b) for b in batches]
        schedule = full + [full[-1]] * len(sizes)
        assert sum(sizes) == cap
        assert sizes[:-1] == schedule[: len(sizes) - 1] and sizes[-1] <= schedule[len(sizes) - 1]
        single = RngStream(5, n).generator()
        expected = [sample_uniform_subset(n, ell, single).tolist() for _ in range(cap)]
        assert [row for batch in batches for row in batch.tolist()] == expected


BLOCKED = {
    "onemax-k3": NeutralityFitness(OneMax(5), 3),
    "onemax-k4": NeutralityFitness(OneMax(5), 4),
    # 140 bits: blocks straddle the 64-bit word boundaries
    "onemax-k7-20": NeutralityFitness(OneMax(20), 7),
    "plateau-k4": NeutralityFitness(PlateauFitness(6, 2), 4),
    "majority-k5": NeutralityFitness(MajorityFitness(8, 2), 5),
    # the vote of block 70, in the second 64-bit word of the vote mask
    "block-base-k3": BlockMajorityFitness(70, 70, 3),
    "first-block-k6": BlockMajorityFitness(1, 11, 6),
    "last-block-k7": BlockMajorityFitness(20, 20, 7),
    # wmodel's block votes: first, middle and last of 20 blocks of 10 bits
    "wmodel-1": BlockMajorityFitness(1, 20, 10),
    "wmodel-10": BlockMajorityFitness(10, 20, 10),
    "wmodel-20": BlockMajorityFitness(20, 20, 10),
    # at n = 256 one bytes.translate keeps the scored flips: the first
    # block, the last (up to position 255) and the whole genotype
    "first-block-k128": BlockMajorityFitness(1, 2, 128),
    "last-block-k128": BlockMajorityFitness(2, 2, 128),
    "whole-k256": BlockMajorityFitness(1, 1, 256),
    # one-bit blocks: one scored position, and every position scored
    "block-k1": BlockMajorityFitness(7, 40, 1),
    "onemax-k1": NeutralityFitness(OneMax(40), 1),
}


class TestBlockedEngine:
    @pytest.mark.parametrize("name", sorted(BLOCKED))
    @pytest.mark.parametrize("ell_kind", ["1", "2", "k", "n"])
    @pytest.mark.parametrize("cap", [37, 65, 193, 257, 1500])
    def test_matches_reference_loop(self, name, ell_kind, cap):
        fit = BLOCKED[name]
        ell = {"1": 1, "2": 2, "k": fit.k, "n": fit.n}[ell_kind]
        cfg = RunConfig(fit, RlsMutation(ell), Uniform(), 7, max_iters=cap,
                        record_trajectory=True)
        # unrecorded, the engine skips flips outside the scored blocks
        bare = RunConfig(fit, RlsMutation(ell), Uniform(), 7, max_iters=cap)
        for i in range(2):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj
            assert run(bare, i).runtime == runtime

    # as in the level engine (seeds in PINNED_SEEDS); the block votes score
    # one block, so most of their flips fall outside the scored blocks, and
    # an unrecorded run maps a hit back from the scored flips to its batch
    @pytest.mark.parametrize(
        "name,i,hit",
        [("onemax-k7-20", 164, 256), ("onemax-k7-20", 33, 257), ("majority-k5", 3018, 256),
         ("first-block-k6", 627, 257), ("last-block-k7", 9810, 256), ("wmodel-1", 2219, 256),
         ("wmodel-1", 1330, 768), ("wmodel-10", 537, 256), ("wmodel-10", 31019, 768),
         ("wmodel-20", 1538, 256), ("wmodel-20", 5774, 768), ("first-block-k128", 5, 256),
         ("first-block-k128", 6, 768), ("last-block-k128", 9, 256),
         ("last-block-k128", 10, 768), ("whole-k256", 3, 256), ("whole-k256", 4, 768)],
    )
    @pytest.mark.parametrize("cap", [1, 255, 256, 257, 768])
    def test_batch_ends_match_reference_loop(self, name, i, hit, cap):
        fit = BLOCKED[name]
        seed = PINNED_SEEDS[name, i]
        pinned = RunConfig(fit, RlsMutation(1), Uniform(), seed)
        ends = batch_ends(pinned, i)
        assert reference_run(pinned, i)[0] == proposal_at(ends, hit)
        check_batch_ends(fit, i, proposal_at(ends, cap), seed=seed)

    # 1000 bits: rejection rows at ell=15, lockstep shuffles of 8, 16, 32,
    # then 64 rows above
    @pytest.mark.parametrize("ell", [15, 16, 100])
    @pytest.mark.parametrize("cap", [8, 9, 56, 57, 120, 121, 300])
    def test_large_n_matches_reference_loop(self, ell, cap):
        fit = NeutralityFitness(OneMax(250), 4)
        cfg = RunConfig(fit, RlsMutation(ell), Uniform(), 7, max_iters=cap,
                        record_trajectory=True)
        for i in range(2):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj

    # an odd fixed start draws an odd count of 32-bit draws (501 shuffle
    # targets), so the flip sets' raw draws start mid-word; a start drawn
    # by rejection (7 ones) leaves the half word to be read from the state
    @pytest.mark.parametrize("ones", [7, 501])
    @pytest.mark.parametrize("ell", [16, 100])
    @pytest.mark.parametrize("cap", [8, 9, 57, 300])
    def test_fixed_start_matches_reference_loop(self, ones, ell, cap):
        fit = NeutralityFitness(OneMax(250), 4)
        cfg = RunConfig(fit, RlsMutation(ell), FixedOnes(ones), 7, max_iters=cap,
                        record_trajectory=True)
        for i in range(3):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj

    def test_reference_covers_censoring(self):
        cfg = RunConfig(BLOCKED["onemax-k7-20"], RlsMutation(2), Uniform(), 7,
                        max_iters=37, record_trajectory=True)
        assert run(cfg, 0).censored and reference_run(cfg, 0)[0] is None


def check_both_sides(cfgs, runs, bound, monkeypatch):
    """Runs ``runs`` of each cell in ``cfgs`` give the same outcomes whether
    the engine loops read their positions as ``ea._flip_lists`` (single
    flips) and ``ea._listed`` (flip sets, and scored flips past n = 256)
    hand them over, or as lists.  Every container either returned must be
    ``bytes`` up to ``bound`` = 256 and a list past it; the largest value
    they held is returned."""
    real_flips, real_listed, seen = ea._flip_lists, ea._listed, []

    def flips(n, draws, cap):
        for out in real_flips(n, draws, cap):
            seen.append((n, out))
            yield out

    def listed(a, limit):
        out = real_listed(a, limit)
        seen.append((limit, out))
        return out

    monkeypatch.setattr(ea, "_flip_lists", flips)
    monkeypatch.setattr(ea, "_listed", listed)
    got = [outcome(run(cfg, i)) for cfg in cfgs for i in runs]
    monkeypatch.setattr(ea, "_flip_lists", lambda *a: map(list, real_flips(*a)))
    monkeypatch.setattr(ea, "_listed", lambda a, bound: a.ravel().tolist())
    want = [outcome(run(cfg, i)) for cfg in cfgs for i in runs]
    monkeypatch.setattr(ea, "_flip_lists", real_flips)
    monkeypatch.setattr(ea, "_listed", real_listed)
    assert got == want
    assert seen and {b for b, _ in seen} == {bound}
    assert {type(out) for _, out in seen} == {bytes if bound <= 256 else list}
    return max(max(out, default=-1) for _, out in seen)


def single_flip_cells(fit, init, cap, seed=7):
    """The recorded, unrecorded and, on majority, restart cells at ell=1."""
    cells = [RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap, record_trajectory=True),
             RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap)]
    if isinstance(fit, MajorityFitness):
        cells.append(RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap,
                               record_restart_stats=True))
    return cells


class TestByteCut:
    """Up to 256 positions the engine loops read a batch's positions as
    ``bytes`` (single flips by the byte rule), past it as a list: either
    way a run gives what the reference loop gives and what the loop gives
    reading lists."""

    @pytest.mark.parametrize("bound", [1, 2, 255, 256, 257, 258, 1000])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_listed_flattens_on_both_sides_of_the_cut(self, bound, rows):
        a = (np.arange(rows * bound, dtype=np.uint32) * 7 % bound).reshape(rows, bound)
        out = ea._listed(a if rows > 1 else a[0], bound)
        assert type(out) is (bytes if bound <= 256 else list)
        assert list(out) == a.ravel().tolist()
        it = iter(out)
        next(it)
        assert length_hint(it) == rows * bound - 1

    # uniform-start runs on MajorityFitness(n, 4) (seeds in PINNED_SEEDS
    # below n = 258) that hit on the last position of the first batch: 256
    # bytes at n = 256, which keeps every byte, less the bytes 254 and 255
    # at n = 254, and 256 indices at n = 258.  Caps as in proposal_at
    @pytest.mark.parametrize("n,i", [(254, 298), (256, 357), (258, 3347)])
    @pytest.mark.parametrize("cap", [255, 256, 257, 768])
    def test_level_single_flips(self, n, i, cap, monkeypatch):
        fit = MajorityFitness(n, 4)
        seed = PINNED_SEEDS.get((f"majority-{n}", i), 7)
        pinned = RunConfig(fit, RlsMutation(1), Uniform(), seed)
        ends = batch_ends(pinned, i)
        assert reference_run(pinned, i)[0] == ends[0]
        assert n < 256 or ends == (256, 768)
        cap = proposal_at(ends, cap)
        check_batch_ends(fit, i, cap, seed=seed)
        top = check_both_sides(single_flip_cells(fit, Uniform(), cap, seed), [i, i + 1], n,
                               monkeypatch)
        assert top == n - 1

    # from n/2 ones some runs at each n return to n/2 after a hit on the
    # zeros side and seek again
    @pytest.mark.parametrize("n", [254, 256, 258])
    def test_restart_runs(self, n, monkeypatch):
        fit = MajorityFitness(n, 2)
        stats = [check_phases(fit, FixedOnes(n // 2), 3000, i) for i in range(6)]
        assert any(s.half_returns for s in stats)
        assert check_both_sides(single_flip_cells(fit, FixedOnes(n // 2), 3000), range(6),
                                n, monkeypatch) == n - 1

    # m = 2 (rejection rows), a flip set past n/64 (lockstep shuffles), a
    # kept set of n - 200 positions, and ell = n, which draws nothing.
    # The caps cross the batch ends of each kind.  At n = 257 (OneMax, as
    # majority needs an even n) 256 is the one position past a byte
    @pytest.mark.parametrize("n", [256, 257, 258])
    @pytest.mark.parametrize("ell", [2, 10, 200, "n"])
    @pytest.mark.parametrize("cap", [1, 16, 17, 33, 97, 400])
    def test_level_subset_flips(self, n, ell, cap, monkeypatch):
        ell = n if ell == "n" else ell
        fit = MajorityFitness(n, 4) if n % 2 == 0 else OneMax(n)
        cfg = RunConfig(fit, RlsMutation(ell), Uniform(), 7, max_iters=cap,
                        record_trajectory=True)
        bare = RunConfig(fit, RlsMutation(ell), Uniform(), 7, max_iters=cap)
        for i in range(3):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj
            assert run(bare, i).runtime == runtime
        if ell == n:
            return
        top = check_both_sides([cfg, bare], range(3), n, monkeypatch)
        assert cap < 97 or top == n - 1

    # block 1 of 2 scores positions 0..k-1 of 2k, past the byte rule; the
    # runs hit on the last index of the first batch (256 indices)
    @pytest.mark.parametrize("k,i", [(256, 27), (258, 3357)])
    @pytest.mark.parametrize("cap", [255, 256, 257, 768])
    def test_blocked_single_flips(self, k, i, cap, monkeypatch):
        fit = BlockMajorityFitness(1, 2, k)
        pinned = RunConfig(fit, RlsMutation(1), Uniform(), 7)
        assert batch_ends(pinned, i) == (256, 768)
        assert reference_run(pinned, i)[0] == 256
        check_batch_ends(fit, i, cap)
        bare = RunConfig(fit, RlsMutation(1), Uniform(), 7, max_iters=cap)
        assert check_both_sides([bare], [i, *range(20)], k, monkeypatch) == k - 1


def outcome(res):
    traj = None if res.trajectory is None else res.trajectory.tolist()
    return res.runtime, res.init_ones, traj, res.restart


# one cell per engine path; a run of each draws its start, its flips, or both
REUSE_CELLS = {
    "level-ell1": RunConfig(MajorityFitness(40, 4), RlsMutation(1), Uniform(), 3),
    "level-ell3": RunConfig(PlateauFitness(40, 5), RlsMutation(3), Uniform(), 3),
    # an odd ones=11 start leaves a half word buffered before the flips
    "level-ell5-ones": RunConfig(MajorityFitness(40, 4), RlsMutation(5), FixedOnes(11), 3),
    "level-ell30": RunConfig(MajorityFitness(40, 4), RlsMutation(30), Uniform(), 3),
    # capped runs at n = 128: the ell=1 run reads whole 256-byte batches,
    # an even count of 32-bit draws, and keeps every byte; the ell=3 run is
    # cut at an odd count of 32-bit draws, which leaves a half word
    # buffered for the next run on its generator.  n is a power of two, so
    # Lemire's rule rejects no draw, not even a stale zero half word
    "level-ell1-cap37": RunConfig(
        MajorityFitness(128, 10), RlsMutation(1), Uniform(), 3, max_iters=37,
        record_trajectory=True,
    ),
    "level-ell3-cap37": RunConfig(
        MajorityFitness(128, 10), RlsMutation(3), Uniform(), 3, max_iters=37,
        record_trajectory=True,
    ),
    "blocked-ell1": RunConfig(NeutralityFitness(OneMax(6), 4), RlsMutation(1), Uniform(), 3),
    "blocked-ell3": RunConfig(
        NeutralityFitness(OneMax(6), 4), RlsMutation(3), Uniform(), 3, max_iters=2000
    ),
    "nonopt-ell2": RunConfig(
        PlateauFitness(14, 3), RlsMutation(2), UniformNonOptimal(PlateauFitness(14, 3)), 3
    ),
    "trajectory-ell1": RunConfig(
        MajorityFitness(30, 3), RlsMutation(1), Uniform(), 3, record_trajectory=True
    ),
    "trajectory-ell2": RunConfig(
        MajorityFitness(30, 3), RlsMutation(2), Uniform(), 3, record_trajectory=True
    ),
    "restarts": RunConfig(
        MajorityFitness(20, 2), RlsMutation(1), Uniform(), 3, record_restart_stats=True
    ),
}
REUSE_RUNS = 6


def built_outcomes(cfg, runs=REUSE_RUNS):
    """Each run's outcome on a generator built for it, none reused."""
    out = []
    for i in range(runs):
        ea._SPARE_GENERATORS.clear()
        out.append(outcome(run(cfg, i)))
    return out


class TestGeneratorReuse:
    """A run draws what its own stream gives, whatever ran on its
    generator before."""

    @pytest.fixture(autouse=True)
    def spare(self, monkeypatch):
        spare = []
        monkeypatch.setattr(ea, "_SPARE_GENERATORS", spare)
        return spare

    @pytest.mark.parametrize("name", sorted(REUSE_CELLS))
    def test_any_cell_order(self, name, spare):
        names = sorted(REUSE_CELLS)
        other = names[(names.index(name) + 1) % len(names)]
        a, b = REUSE_CELLS[name], REUSE_CELLS[other]
        want_a, want_b = built_outcomes(a), built_outcomes(b)
        for cfg, want in ((a, want_a), (b, want_b), (a, want_a)):
            assert [outcome(run(cfg, i)) for i in range(REUSE_RUNS)] == want
            # every run after the first reset the one generator
            assert len(spare) == 1 and isinstance(spare[0], Draws)
        # runs in reverse order, one per cell in turn
        for i in reversed(range(REUSE_RUNS)):
            assert outcome(run(b, i)) == want_b[i]
            assert outcome(run(a, i)) == want_a[i]

    @pytest.mark.parametrize("engine", ["_run_level", "_run_blocked"])
    @pytest.mark.parametrize("ell", [1, 3])
    def test_runs_after_one_that_raised(self, engine, ell, spare, monkeypatch):
        fit = MajorityFitness(40, 4) if engine == "_run_level" else NeutralityFitness(OneMax(6), 4)
        cfg = RunConfig(fit, RlsMutation(ell), Uniform(), 5, max_iters=5000)
        want = built_outcomes(cfg)
        real = getattr(ea, engine)

        def raising(fit, ell, state, rng, cap, traj):
            real(fit, ell, state, rng, 300, traj)  # draws, then fails
            raise RuntimeError("engine failed")

        assert outcome(run(cfg, 0)) == want[0]
        # a second spare, left with a half word buffered
        second = Draws(RngStream(1, 1).generator(), buffered=False)
        second.u32(3)
        assert second.buffered
        spare.append(second)
        monkeypatch.setattr(ea, engine, raising)
        with pytest.raises(RuntimeError, match="engine failed"):
            run(cfg, 1)
        monkeypatch.setattr(ea, engine, real)
        assert len(spare) == 1
        assert [outcome(run(cfg, i)) for i in range(REUSE_RUNS)] == want

    def test_threads_match_serial(self, spare):
        cells = [REUSE_CELLS[name] for name in sorted(REUSE_CELLS)]
        want = [built_outcomes(cfg) for cfg in cells]

        def runs(cfg):
            return [outcome(run(cfg, i)) for i in range(REUSE_RUNS)]

        interval = sys.getswitchinterval()
        # more threads than cores, switching often, so that runs interleave
        # mid-engine
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(runs, cells + cells[::-1], timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want + want[::-1]
        # no more generators than runs held at once
        assert 1 <= len(spare) <= 4


class TestLevelProcess:
    def test_conditional_step_frequencies_on_plateau(self):
        # a censored run stays on a wide plateau for its whole 10^6 steps;
        # the majority count must rise w.p. (n-m)/n at m > n/2 and surely at n/2
        n, r = 100, 30
        cfg = RunConfig(
            PlateauFitness(n, r),
            RlsMutation(1),
            FixedOnes(n // 2),
            2024,
            max_iters=1_000_000,
            record_trajectory=True,
        )
        res = run(cfg, 0)
        assert res.censored
        ones = res.trajectory
        # on the plateau both fitness values are 0, so no proposal is
        # rejected and the ones count moves at every step
        assert np.all(np.abs(np.diff(ones)) == 1)
        m = np.maximum(ones, n - ones)
        ups = {}
        visits = {}
        for a, b in zip(m[:-1], m[1:]):
            visits[a] = visits.get(a, 0) + 1
            if b == a + 1:
                ups[a] = ups.get(a, 0) + 1
        assert ups.get(n // 2, 0) == visits.get(n // 2, 0)
        for level, seen in visits.items():
            if level == n // 2 or seen < 1000:
                continue
            p = (n - level) / n
            se = math.sqrt(p * (1 - p) / seen)
            assert abs(ups.get(level, 0) / seen - p) < 3 * se + 1e-9


class TestBitstringLeg:
    """The count engine reads a level objective through exchangeability and
    draws flip sets (or, above n/2, the positions kept) for a state it never
    builds.  At k=1 a NeutralityFitness over the objective is the objective
    itself, run by the blocked engine on real bits: both must agree with
    each other and with the exact kernel, within the 3-SE bands."""

    @pytest.mark.parametrize("ell_kind", ["1", "2", "n/2", "n/2+1", "n-1", "n"])
    def test_count_engine_matches_bitstring_engine_and_kernel(self, ell_kind):
        from plateaulab.oracle import (
            expected_under_init,
            kernel_hitting_times,
            rlsl_kernel,
        )

        n, runs = 20, 4000
        ell = {"1": 1, "2": 2, "n/2": n // 2, "n/2+1": n // 2 + 1, "n-1": n - 1,
               "n": n}[ell_kind]
        # a full flip maps level j to n - j, so for r >= 1 the levels between
        # n/2 - r and n/2 + r never reach the optimum; at r=0 they all do
        r = 0 if ell == n else 2
        base = MajorityFitness(n, r)
        kernel = rlsl_kernel(n, ell, base.level_value)
        exact = expected_under_init(kernel_hitting_times(kernel), n, Uniform())
        stats = []
        for fit in (base, NeutralityFitness(base, 1)):
            cfg = RunConfig(fit, RlsMutation(ell), Uniform(), 2026)
            arr = np.array([run(cfg, i).runtime for i in range(runs)], dtype=float)
            mean, se = arr.mean(), arr.std(ddof=1) / math.sqrt(runs)
            assert abs(mean - exact) < 3 * se, (type(fit).__name__, mean, se, exact)
            stats.append((mean, se))
        (count_mean, count_se), (bits_mean, bits_se) = stats
        assert abs(count_mean - bits_mean) < 3 * math.hypot(count_se, bits_se)


def check_phases(fit, init, cap, i, seed=7):
    """Run i (master seed ``seed``) of the restart-statistics cell on
    ``fit`` from ``init`` under ``cap``: the phase tables give the runtime
    and the statistics that the recorded trajectory gives, which are
    returned."""
    recorded = run(RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap,
                             record_trajectory=True), i)
    expected = extract_restart_stats(recorded.trajectory, fit.n, fit.r)
    got = run(RunConfig(fit, RlsMutation(1), init, seed, max_iters=cap,
                        record_restart_stats=True), i)
    assert got.runtime == recorded.runtime
    assert got.restart == expected
    return expected


class TestPhaseEngine:
    # uniform-start runs on MajorityFitness(100, 8) (seeds in PINNED_SEEDS)
    # with a phase exit, a hit on the zeros side or a return to n/2, on the
    # last position of the first batch or of the second (as in
    # proposal_at); unrecorded, that batch ends above n.  Caps end the run
    # one before, on and one after the exit
    @pytest.mark.parametrize(
        "kind,i,exit",
        [("hit", 477, 256), ("hit", 2566, 768), ("return", 708, 256), ("return", 4440, 768)],
    )
    def test_exits_on_batch_ends(self, kind, i, exit):
        fit = MajorityFitness(100, 8)
        seed = PINNED_SEEDS[kind, i]
        exit = proposal_at(batch_ends(RunConfig(fit, RlsMutation(1), Uniform(), seed), i), exit)
        pinned = check_phases(fit, Uniform(), ea.DEFAULT_CAP, i, seed)
        assert not pinned.partial
        assert exit in (pinned.plateau_hits[:-1] if kind == "hit" else pinned.half_returns)
        for cap in (exit - 1, exit, exit + 1):
            stats = check_phases(fit, Uniform(), cap, i, seed)
            assert stats.partial
            # a run cut on the exit ends in the phase it entered there
            returning = len(stats.plateau_hits) > len(stats.half_returns)
            assert returning == ((kind == "hit") == (cap >= exit))

    def test_caps_cut_both_phases(self):
        # r=1: every step from n/2 exits; r=n/2: the plateau is the ends
        cut = {True: 0, False: 0}
        for n, r in ((20, 1), (20, 2), (40, 4), (20, 10)):
            for cap in (1, 50, 256, 257, 768, 2000):
                for i in range(40):
                    stats = check_phases(MajorityFitness(n, r), Uniform(), cap, i)
                    if stats.partial:
                        cut[len(stats.plateau_hits) > len(stats.half_returns)] += 1
        assert cut[True] and cut[False], cut

    # n=20, r=2: a start at 8 ones or fewer is a hit on the zeros side, one
    # at 12 or more is optimal
    @pytest.mark.parametrize("ones", [0, 4, 8, 9, 10, 11, 12, 15, 20])
    @pytest.mark.parametrize("cap", [1, 256, ea.DEFAULT_CAP])
    def test_fixed_starts(self, ones, cap):
        fit = MajorityFitness(20, 2)
        for i in range(20):
            stats = check_phases(fit, FixedOnes(ones), cap, i)
            if ones >= 12:
                assert stats == RestartStats((0,), (), 0, False, True, False)
            elif ones <= 8:
                assert stats.plateau_hits[0] == 0 and not stats.first_hit_majority

    def test_tables_are_built_once(self):
        fit = MajorityFitness(20, 2)
        run(RunConfig(fit, RlsMutation(1), Uniform(), 1, record_restart_stats=True), 0)
        tables = fit.phase_tables
        run(RunConfig(fit, RlsMutation(1), Uniform(), 1, record_restart_stats=True), 1)
        assert fit.phase_tables is tables

    # r = 1, a middle r and r = n/2 on both sides of the row limit (n = 256),
    # and one cell far past it
    PHASE_CELLS = [(n, r) for n in (20, 100, 256, 258) for r in (1, 8, n // 2)] + [(1000, 31)]

    @pytest.mark.parametrize("n,r", PHASE_CELLS)
    def test_phases_run_as_the_old_exit_rule(self, n, r):
        # restart runs on the paper's two objectives' stop tables and on the
        # exit rule they replaced; at r = n/2 nearly every run is cut at the cap
        old = MajorityFitness(n, r)
        old.phase_tables = old_phase_tables(old)
        for cap in (300, 20_000):
            for i in range(60):
                was, now = (
                    run(RunConfig(fit, RlsMutation(1), Uniform(), 5, max_iters=cap,
                                  record_restart_stats=True), i)
                    for fit in (old, MajorityFitness(n, r))
                )
                assert (now.runtime, now.init_ones, now.restart) == (
                    was.runtime, was.init_ones, was.restart
                )

    @pytest.mark.parametrize("n,r", PHASE_CELLS)
    def test_phases_differ_from_the_old_rule_at_three_exits(self, n, r):
        # every entry that differs is a move from one of its phase's own exit
        # counts, which no walk applies: the seeking phase's higher at
        # n/2 - r, the returning phase's lower at n/2 and at n/2 + r
        differ = set()
        for phase, old, new in zip(("seeking", "returning"),
                                   old_phase_tables(MajorityFitness(n, r)),
                                   MajorityFitness(n, r).phase_tables):
            if n <= 256:
                differ |= {(phase, j, "lower" if i < j else "higher")
                           for j in range(n + 1) for i in range(n) if old[j][i] != new[j][i]}
            else:
                differ |= {(phase, j, side) for side, a, b in zip(("lower", "higher"), old, new)
                           for j in range(n + 1) if a[j] != b[j]}
        half = n // 2
        assert differ == {("seeking", half - r, "higher"), ("returning", half, "lower"),
                          ("returning", half + r, "lower")}


def old_phase_tables(fit):
    """The restart phases by the exit rule the two objectives' stop tables
    replaced: the majority objective's single-flip moves, with a move onto
    n/2 + r ones or more or n/2 - r or fewer exiting the seeking phase, and
    one onto n/2 or more the returning phase.  An exit onto j is n + 1 + j;
    rows per count up to n = 256, the (lower, higher) pair past it."""
    n, half, top = fit.n, fit.n // 2, fit.threshold
    _, lower, higher = fit.level_tables

    def phase(exits):
        pair = [[n + 1 + j if exits(j) else j for j in t] for t in (lower, higher)]
        if n > 256:
            return tuple(pair)
        return [[pair[0][j] if i < j else pair[1][j] for i in range(n)] for j in range(n + 1)]

    return phase(lambda j: j >= top or j <= n - top), phase(lambda j: j >= half)


def searchsorted_restart_stats(trajectory, n, r):
    """The index-search form of ``extract_restart_stats`` it replaced, as the
    reference: each phase end is the next index of a precomputed index array."""
    arr = np.asarray(trajectory, dtype=np.int64)
    half, top = n // 2, n // 2 + r
    plateau_idx = np.flatnonzero((arr >= top) | ((n - arr) >= top))
    half_idx = np.flatnonzero(arr >= half)
    hits, returns = [], []
    success = False
    pos = 0
    while True:
        k = int(np.searchsorted(plateau_idx, pos))
        if k == len(plateau_idx):
            break
        t = int(plateau_idx[k])
        hits.append(t)
        if arr[t] >= top:
            success = True
            break
        k2 = int(np.searchsorted(half_idx, t))
        if k2 == len(half_idx):
            break
        back = int(half_idx[k2])
        returns.append(back)
        if arr[back] >= top:
            success = True
            break
        pos = back + 1
    retries = len(hits) - 1 if success else len(hits)
    return RestartStats(
        plateau_hits=tuple(hits),
        half_returns=tuple(returns),
        retries=retries,
        retried=retries >= 1,
        first_hit_majority=bool(hits) and int(arr[hits[0]]) >= top,
        partial=not success,
    )


@st.composite
def restart_case(draw):
    """(trajectory, n, r): a +-1 walk kept in [0, n], or any int sequence."""
    n = 2 * draw(st.integers(1, 20))
    r = draw(st.integers(1, n // 2))
    if draw(st.booleans()):
        ones = draw(st.integers(0, n))
        trajectory = [ones]
        for step in draw(st.lists(st.sampled_from((-1, 1)), max_size=300)):
            ones = min(n, max(0, ones + step))
            trajectory.append(ones)
    else:
        value = st.one_of(st.integers(-3, n + 3), st.integers(-(2**62), 2**62))
        trajectory = draw(st.lists(value, min_size=1, max_size=300))
    return trajectory, n, r


class TestRestartStats:
    def test_hand_traced_example(self):
        stats = extract_restart_stats([2, 1, 0, 1, 2, 3, 4], 4, 2)
        assert stats.plateau_hits == (2, 6)
        assert stats.half_returns == (4,)
        assert stats.retries == 1
        assert stats.retried
        assert not stats.first_hit_majority
        assert not stats.partial

    def test_immediate_success(self):
        stats = extract_restart_stats([2, 3, 4], 4, 2)
        assert stats.plateau_hits == (2,)
        assert stats.retries == 0
        assert not stats.retried
        assert stats.first_hit_majority
        assert not stats.partial

    def test_partial_when_unfinished(self):
        stats = extract_restart_stats([2, 1, 0, 1], 4, 2)
        assert stats.partial
        assert stats.plateau_hits == (2,)
        assert stats.retries == 1

    def test_times_validation(self):
        faults = [
            ([0, 1], "times has 2 entries for 3 ones counts"),
            ([0, 1, 2, 3], "times has 4 entries for 3 ones counts"),
            ([1, 2, 3], "times must increase strictly from 0"),
            ([0, 2, 2], "times must increase strictly from 0"),
            ([0, 3, 1], "times must increase strictly from 0"),
            (np.array([0, 5, 4]), "times must increase strictly from 0"),
            ([0, None, 2], "times must be a sequence of iterations"),
        ]
        for times, message in faults:
            with pytest.raises(ValueError, match=message):
                extract_restart_stats([2, 1, 0], 4, 2, times=times)

    @given(restart_case())
    @settings(max_examples=200, deadline=None)
    def test_times_range_is_the_trajectory_form(self, case):
        trajectory, n, r = case
        assert extract_restart_stats(
            trajectory, n, r, times=range(len(trajectory))
        ) == extract_restart_stats(trajectory, n, r)

    @given(restart_case(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_times_relabel_the_iterations(self, case, data):
        # a sparse record reads as the dense one whose entry i is at times[i]
        trajectory, n, r = case
        gaps = data.draw(st.lists(st.integers(1, 10**6), min_size=len(trajectory) - 1,
                                  max_size=len(trajectory) - 1))
        times = [0]
        for gap in gaps:
            times.append(times[-1] + gap)
        dense = extract_restart_stats(trajectory, n, r)
        sparse = extract_restart_stats(trajectory, n, r, times=times)
        assert sparse == dataclasses.replace(
            dense,
            plateau_hits=tuple(times[t] for t in dense.plateau_hits),
            half_returns=tuple(times[t] for t in dense.half_returns),
        )

    def test_validation(self):
        for n, r in [(4, 0), (4, 3), (5, 1), (0, 1), (-2, 1)]:
            with pytest.raises(ValueError, match="invalid parameters"):
                extract_restart_stats([1, 2], n, r)
        empty_or_2d = [
            [],
            np.array([], dtype=np.int64),
            np.zeros((2, 3), dtype=np.int64),
            [[1, 2], [3, 4]],
            np.array(2),
        ]
        for trajectory in empty_or_2d:
            with pytest.raises(ValueError, match="non-empty sequence"):
                extract_restart_stats(trajectory, 4, 1)

    @given(restart_case(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_searchsorted_reference(self, case, as_array):
        trajectory, n, r = case
        arg = np.asarray(trajectory, dtype=np.int64) if as_array else trajectory
        assert extract_restart_stats(arg, n, r) == searchsorted_restart_stats(
            trajectory, n, r
        )

    def test_interleaving_invariant_on_runs(self):
        n, r = 20, 2
        checked = 0
        cfg = RunConfig(
            MajorityFitness(n, r),
            RlsMutation(1),
            Uniform(),
            555,
            record_restart_stats=True,
        )
        for i in range(1000):
            stats = run(cfg, i).restart
            assert not stats.partial
            hits, returns = stats.plateau_hits, stats.half_returns
            assert stats.retries == len(hits) - 1
            assert len(returns) in (len(hits) - 1, len(hits))
            for idx, back in enumerate(returns):
                assert hits[idx] <= back
                if idx + 1 < len(hits):
                    assert back < hits[idx + 1]
            checked += 1
        assert checked == 1000

    def test_run_with_restart_stats_only_drops_trajectory(self):
        cfg = RunConfig(
            MajorityFitness(10, 2),
            RlsMutation(1),
            Uniform(),
            7,
            record_restart_stats=True,
        )
        res = run(cfg, 0)
        assert res.trajectory is None
        assert res.restart is not None

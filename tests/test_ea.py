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


def reference_run(cfg, run_index):
    """The elitist loop spelled out: every proposal is a new BitString scored
    by ``fit.value``.  It draws single flips in blocks of ``_BATCH``
    integers, which the engines' growing batches replay exactly, and for
    ell > 1 one subset per proposal.

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
    while t < cap:
        if ell == 1:
            flips = [[i] for i in rng.integers(0, n, size=min(_BATCH, cap - t))]
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

    # caps inside the first batch, and on both sides of the first two
    # batch ends (256 and 768)
    @pytest.mark.parametrize(
        "cap", [1, 63, 64, 65, 191, 192, 193, 255, 256, 257, 767, 768, 769, 20_000]
    )
    def test_batches_double_up_to_cap(self, cap):
        batches = list(_index_batches(100, RngStream(8).generator(), cap))
        sizes = [len(b) for b in batches]
        assert sum(sizes) == cap
        full = [min(_BATCH_FIRST << i, _BATCH) for i in range(len(sizes))]
        assert sizes[:-1] == full[:-1] and sizes[-1] <= full[-1]
        expected = RngStream(8).generator().integers(0, 100, size=cap).tolist()
        assert [i for b in batches for i in b] == expected


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


class TestLevelEngine:
    # caps inside the first ell=1 batch, and on both sides of its end (256)
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

    # n=1000: rejection rows (ell <= 15) and 8-row lockstep shuffles
    # (ell=16); n=8200: rejection rows and one-row sparse shuffles
    @pytest.mark.parametrize(
        "n,ell,r", [(1000, 2, 8), (1000, 15, 16), (1000, 16, 16), (8200, 2, 8), (8200, 200, 60)]
    )
    @pytest.mark.parametrize("init", ["uniform", "half"])
    @pytest.mark.parametrize("cap", [1, 17, 300])
    def test_large_n_matches_reference_loop(self, n, ell, r, init, cap):
        start = Uniform() if init == "uniform" else FixedOnes(n // 2)
        cfg = RunConfig(MajorityFitness(n, r), RlsMutation(ell), start, 7,
                        max_iters=cap, record_trajectory=True)
        for i in range(3):
            res = run(cfg, i)
            runtime, traj = reference_run(cfg, i)
            assert res.runtime == runtime
            assert res.trajectory.tolist() == traj


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

    def test_reference_covers_censoring(self):
        cfg = RunConfig(BLOCKED["onemax-k7-20"], RlsMutation(2), Uniform(), 7,
                        max_iters=37, record_trajectory=True)
        assert run(cfg, 0).censored and reference_run(cfg, 0)[0] is None


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

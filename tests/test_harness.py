import gc
import math
import os
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from dataclasses import astuple, replace

import numpy as np
import pytest

from plateaulab import harness, oracle
from plateaulab.core import FixedOnes, Point, Uniform, UniformNonOptimal
from plateaulab.ea import RlsMutation, RunConfig, run
from plateaulab.harness import (
    CellResult,
    CellStats,
    ExperimentSpec,
    PlotSpec,
    dilution_experiment,
    emit_svg,
    emit_sweep_svg,
    load_config,
    parse_init,
    read_table,
    restart_experiment,
    sweep,
    table_lines,
    trajectory_capture,
    write_csv,
)
from plateaulab.fitness import (
    BlockMajorityFitness,
    MajorityFitness,
    NeutralityFitness,
    OneMax,
    make_fitness,
)


def small_spec(**overrides):
    base = dict(
        function="majority",
        n_values=(20,),
        ell_values=(1,),
        r=2,
        runs=200,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestCellStats:
    def test_summary_values(self):
        stats = CellStats.from_runtimes([1, 2, 3, 4, None])
        assert stats.runs == 5
        assert stats.censored == 1
        assert stats.mean == pytest.approx(2.5)
        assert stats.p25 <= stats.median <= stats.p75

    def test_all_censored(self):
        stats = CellStats.from_runtimes([None, None])
        assert stats.censored == 2
        assert math.isnan(stats.mean)

    def test_degenerate_single_run(self):
        stats = CellStats.from_runtimes([7])
        assert stats.stderr == 0.0

    def test_quartiles_are_numpy_percentiles(self):
        # np.percentile's default (linear) rule, bit for bit, on integer
        # run times of every size from 1 to 60; censored runs are left out
        rng = np.random.default_rng(11)
        for size in range(1, 61):
            for _ in range(30):
                times = rng.integers(0, 10**9, size=size, endpoint=True).tolist()
                stats = CellStats.from_runtimes(times + [None])
                quartiles = [stats.p25, stats.median, stats.p75]
                assert quartiles == np.percentile(times, (25, 50, 75)).tolist()
                assert all(type(q) is float for q in quartiles)


class TestSweep:
    def test_deterministic_repeat(self):
        assert sweep(small_spec()) == sweep(small_spec())

    def test_workers_do_not_change_results(self):
        # 13 runs a cell in chunks of 2 (2 or 3 processes), so some chunks
        # hold the last run of one cell and the first of the next
        spec = small_spec(n_values=(10, 12), ell_values=(1, 3), runs=13)
        serial = sweep(spec)
        assert sweep(replace(spec, workers=2)) == serial
        assert sweep(replace(spec, workers=3)) == serial

    # (CPUs, n values, runs a cell, the (processes, chunks) each pool is
    # asked for); the machine's own CPU count leaves the pool size open
    @pytest.mark.parametrize(
        "cpus,n_values,runs,pools",
        [
            (None, (10, 12), 5, None),
            (3, (10, 12), 5, [(3, 20)]),
            (8, (10,), 3, [(6, 6)]),
            (8, (10,), 1, [(2, 2)]),
            (1, (10, 12), 50, []),
        ],
    )
    def test_pool_size_capped_by_cpus_and_chunks(
        self, monkeypatch, cpus, n_values, runs, pools
    ):
        # a stand-in pool that records what it is asked for and maps in
        # this process, so no process is started whatever the worker count
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                items = list(zip(*iterables))
                asked.append((self.max_workers, math.ceil(len(items) / chunksize)))
                return [fn(*args) for args in items]

        spec = small_spec(n_values=n_values, ell_values=(1, 3), runs=runs)
        serial = sweep(spec)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        if cpus is not None:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sweep(replace(spec, workers=10**6)) == serial
        for procs, chunks in asked:
            assert 2 <= procs <= min(os.cpu_count() or 1, chunks)
        if pools is not None:
            assert asked == pools

    def test_point_init_at_optimum(self):
        spec = small_spec(
            n_values=(4,), r=2, runs=5, init="point=1111", ell_values=(1,)
        )
        (row,) = sweep(spec)
        assert row.stats.mean == 0.0
        assert row.stats.stderr == 0.0

    def test_mean_matches_oracle_uniform_small(self):
        spec = small_spec(n_values=(2,), r=1, runs=100_000, master_seed=7)
        (row,) = sweep(spec)
        assert abs(row.stats.mean - 2.5) <= 3 * row.stats.stderr

    def test_larger_flip_count_helps(self):
        spec = small_spec(n_values=(30,), r=3, ell_values=(1, 15), runs=400)
        one, fifteen = sweep(spec)
        gap_se = math.hypot(one.stats.stderr, fifteen.stats.stderr)
        assert fifteen.stats.mean < one.stats.mean - 3 * gap_se

    def test_percentile_ordering(self):
        for row in sweep(small_spec(ell_values=(1, 2, 5), runs=300)):
            s = row.stats
            assert s.p25 <= s.median <= s.p75

    def test_sqrt_rule(self):
        spec = small_spec(n_values=(16, 36), r="sqrt", runs=50)
        rows = sweep(spec)
        assert [row.r for row in rows] == [4, 6]

    def test_invalid_cell_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_spec(n_values=(21,)))
        with pytest.raises(ValueError):
            sweep(small_spec(ell_values=(40,)))

    def test_statistical_contract_meta_trials(self):
        # ten fresh master seeds; the empirical mean should sit within
        # 3 standard errors of the exact value nearly always
        exact = oracle.expected_under_init(
            oracle.majority_hitting_by_level(20, 2), 20, Uniform()
        )
        hits = 0
        for seed in range(10):
            (row,) = sweep(small_spec(runs=2000, master_seed=1000 + seed))
            if abs(row.stats.mean - exact) <= 3 * row.stats.stderr:
                hits += 1
        assert hits >= 9


    @pytest.mark.parametrize("function,r,ell", [("plateau", 3, 1), ("majority", 2, 3)])
    def test_nonoptimal_start_cell_matches_oracle(self, function, r, ell):
        # the sweep's rejection-sampled starts against the binomial weights
        # renormalised over the non-optimal levels
        n = 20
        fit = make_fitness(function, n, r=r)
        if ell == 1:
            levels = (oracle.plateau_hitting_by_level if function == "plateau"
                      else oracle.majority_hitting_by_level)(n, r)
        else:
            levels = oracle.kernel_hitting_times(oracle.rlsl_kernel(n, ell, fit.level_value))
        exact = oracle.expected_under_init(levels, n, UniformNonOptimal(fit))
        (row,) = sweep(small_spec(function=function, r=r, ell_values=(ell,), runs=2000,
                                  init="uniform-nonopt", master_seed=17))
        assert row.stats.censored == 0
        assert abs(row.stats.mean - exact) <= 3 * row.stats.stderr


class TestRestartExperiment:
    def test_small_instance_statistics(self):
        report = restart_experiment(20, 3, runs=4000, master_seed=11)
        assert report.censored == 0
        assert abs(report.p0_hat - 0.5) <= 3 * report.p0_stderr
        assert report.mean_retries is not None
        assert abs(report.mean_retries - 2.0) <= 3 * report.retries_stderr

    def test_no_retried_run_leaves_retry_stats_undefined(self):
        report = restart_experiment(4, 1, runs=1, master_seed=2)
        assert report.censored == 0 and report.p0_hat == 1.0
        assert report.retried_runs == 0
        assert report.mean_retries is None and report.retries_stderr is None

    def test_extreme_r_half_n(self):
        # every plateau optimum is all-ones or all-zeros; still a fair coin
        report = restart_experiment(4, 2, runs=4000, master_seed=13)
        assert abs(report.p0_hat - 0.5) <= 3 * report.p0_stderr

    def test_workers_deterministic(self):
        a = restart_experiment(12, 2, runs=600, master_seed=3, workers=1)
        b = restart_experiment(12, 2, runs=600, master_seed=3, workers=2)
        assert a == b


class TestTableLifetime:
    def test_no_table_outlives_its_objective(self):
        """The single-flip tables live on their objective: once the caller
        drops the cells it ran, each objective is freed, and so is the
        memory its tables took (about 0.5 MB a table at n = 256)."""

        def cells():
            return [
                RunConfig(MajorityFitness(256, 8), RlsMutation(1), Uniform(), 1),
                RunConfig(MajorityFitness(256, 8), RlsMutation(1), Uniform(), 1,
                          record_restart_stats=True),
                RunConfig(BlockMajorityFitness(1, 1, 256), RlsMutation(1), Uniform(), 1),
            ]

        # a first pass fills what a process keeps for any objective: its
        # spare generator and the translate tables cached per n and per
        # scored range
        for cfg in cells():
            harness.run_cell(cfg, 5)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cfgs = cells()
            for cfg in cfgs:
                harness.run_cell(cfg, 5)
            assert "stop_tables" in vars(cfgs[0].fitness)
            assert "phase_tables" in vars(cfgs[1].fitness)
            refs = [weakref.ref(cfg.fitness) for cfg in cfgs]
            del cfgs, cfg
            gc.collect()
            assert [ref() for ref in refs] == [None] * 3
            assert tracemalloc.get_traced_memory()[0] - before < 100_000
        finally:
            tracemalloc.stop()


class TestDilutionExperiment:
    def test_single_block_is_identity(self):
        report = dilution_experiment(1, 6, runs=3000, master_seed=5)
        assert abs(report.ratio - 1.0) <= 3 * report.ratio_stderr

    def test_k2_mean_scales_with_blocks(self):
        report = dilution_experiment(5, 2, runs=5000, master_seed=6)
        assert report.exact_block == pytest.approx(2.5, abs=1e-12)
        assert abs(report.mean_runtime - 12.5) <= 3 * report.stderr

    def test_block_bound_holds(self):
        report = dilution_experiment(3, 10, runs=500, master_seed=7)
        assert report.exact_block <= report.block_bound
        assert report.block_bound == 11.0

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            dilution_experiment(3, 5, runs=10, master_seed=1)


class TestTrajectoryCapture:
    def test_single_flip_steps(self):
        res = trajectory_capture(30, 3, 1, master_seed=21)
        traj = res.trajectory
        assert res.runtime is not None
        assert traj[-1] >= 30 // 2 + 3
        assert np.all(np.abs(np.diff(traj)) == 1)
        # non-optimal start enforced by the init distribution
        assert traj[0] < 30 // 2 + 3

    def test_large_flip_count_jumps(self):
        # runs with ell = n/2 are only a handful of steps long, so the
        # double-digit level jumps show up pooled across seeds
        jumps = []
        for seed in range(10):
            res = trajectory_capture(100, 10, 50, master_seed=seed)
            assert res.runtime is not None
            jumps.append(int(np.max(np.abs(np.diff(res.trajectory)))))
        assert sum(1 for j in jumps if j > 10) >= 2


class TestRunsFinish:
    def test_trapped_cell_rejected_before_any_run(self, monkeypatch):
        def no_run(cfg, run_index):
            raise AssertionError("a run started; it would spin to the 10^9 cap")

        monkeypatch.setattr(harness, "run", no_run)
        spec = small_spec(function="onemax", n_values=(10,), ell_values=(2, 1), runs=5)
        with pytest.raises(ValueError, match="ones count 9.*--cap"):
            sweep(spec)

    def test_checked_once_per_cell(self, monkeypatch):
        calls = []
        real = oracle.trapped_level

        def counted(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(oracle, "trapped_level", counted)
        sweep(small_spec(ell_values=(1, 2, 3), runs=30))
        restart_experiment(20, 2, runs=30, master_seed=1)
        assert calls == [(20, 1), (20, 2), (20, 3), (20, 1)]

    def test_explicit_cap_censors_instead(self):
        rows = sweep(
            small_spec(function="onemax", n_values=(10,), ell_values=(2,), runs=20, cap=500)
        )
        assert rows[0].stats.censored > 0

    def test_init_support_decides(self):
        fit = OneMax(10)
        # 2-bit flips keep the parity of an even start, which reaches 10 ones
        for init in (FixedOnes(4), Point("1100000000")):
            RunConfig(fit, RlsMutation(2), init, 1)
        for init in (FixedOnes(3), Point("1110000000"), Uniform()):
            with pytest.raises(ValueError, match="never finish"):
                RunConfig(fit, RlsMutation(2), init, 1)

    def test_blocked_objectives_not_checked(self):
        fit = NeutralityFitness(OneMax(5), 2)
        RunConfig(fit, RlsMutation(10), Uniform(), 1)

    def test_library_runs_checked_when_built(self):
        # at ell = n majority swaps a string with its equally fit complement
        fit = MajorityFitness(100, 10)
        # the error names the library's setting beside the CLI's
        with pytest.raises(ValueError, match=r"never finish.*--cap \(max_iters"):
            RunConfig(fit, RlsMutation(100), FixedOnes(50), 1)
        config = RunConfig(fit, RlsMutation(100), FixedOnes(50), 1, max_iters=500)
        assert run(config, 0).censored

    def test_trajectory_rejected(self):
        with pytest.raises(ValueError, match="never finish"):
            trajectory_capture(100, 10, 100, master_seed=1)

    def test_trajectory_under_a_cap_censors_instead(self):
        res = trajectory_capture(100, 10, 100, master_seed=1, cap=50)
        assert res.censored and len(res.trajectory) == 51


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = sweep(small_spec(ell_values=(1, 3), runs=50))
        path = tmp_path / "table.csv"
        write_csv(table_lines(rows), str(path))
        _, table = read_table(str(path))
        assert table == [[row.n, row.r, row.ell, *astuple(row.stats)] for row in rows]

    def test_header_exact(self, tmp_path):
        rows = sweep(small_spec(runs=10))
        path = tmp_path / "table.csv"
        write_csv(table_lines(rows), str(path))
        first = path.read_text().splitlines()[0]
        assert first == "n,r,ell,runs,mean,median,p25,p75,stderr,censored"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(table_lines([]), str(tmp_path / "x.csv"))

    def test_read_table_generic(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b\n1,2.5\n3,4.5\n")
        header, rows = read_table(str(path))
        assert header == ["a", "b"]
        assert rows == [[1.0, 2.5], [3.0, 4.5]]


class TestSvg:
    def test_well_formed_xml(self, tmp_path):
        rows = sweep(small_spec(ell_values=(1, 2, 4), runs=60))
        path = tmp_path / "chart.svg"
        emit_sweep_svg(rows, str(path))
        root = ET.parse(str(path)).getroot()
        assert root.tag.endswith("svg")

    def test_log_axes_drop_nonpositive(self, tmp_path):
        header = ["x", "y"]
        table = [[0.0, 1.0], [1.0, 10.0], [10.0, 100.0]]
        path = tmp_path / "log.svg"
        emit_svg(header, table, PlotSpec(x="x", y=("y",), logx=True, logy=True), str(path))
        assert ET.parse(str(path)).getroot() is not None

    def test_unknown_column_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg(["x"], [[1.0]], PlotSpec(x="x", y=("nope",)), str(tmp_path / "a.svg"))

    def test_deterministic_bytes(self, tmp_path):
        rows = sweep(small_spec(runs=25))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_sweep_svg(rows, str(p1))
        emit_sweep_svg(rows, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestConfig:
    def test_load_and_types(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[experiment]\nfunction = majority\nn = 10,20\nell = 1,2\n"
            "r = 2\nruns = 30\nseed = 9\n"
        )
        conf = load_config(str(path))
        assert conf["function"] == "majority"
        assert conf["n"] == "10,20"
        assert conf["runs"] == "30"

    def test_missing_file(self):
        with pytest.raises(ValueError):
            load_config("/nonexistent/path.cfg")


class TestParseInit:
    def test_forms(self):
        fit = MajorityFitness(4, 1)
        assert parse_init("uniform", fit).__class__.__name__ == "Uniform"
        assert parse_init("ones=3", fit).ones == 3
        assert parse_init("point=1100", fit).bits == "1100"
        nonopt = parse_init("uniform-nonopt", fit)
        assert nonopt.fitness is fit

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_init("gaussian", MajorityFitness(4, 1))

import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import plateaulab
from plateaulab import harness
from plateaulab.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a fresh interpreter that imports this source tree."""
    src = str(pathlib.Path(plateaulab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def parse_csv(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBounds:
    def test_n4_r2_row(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--r", "2")
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["lambda"]) == pytest.approx(9.0, rel=1e-12)
        assert float(row["delta"]) == pytest.approx(4 / 3, rel=1e-12)
        assert float(row["plateau_bound_center"]) == pytest.approx(60.0, rel=1e-12)

    def test_table_over_lists(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "4,8", "--r", "1,2")
        assert code == EXIT_OK
        assert len(parse_csv(out)) == 4

    def test_odd_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "5", "--r", "1")
        assert code == EXIT_USAGE
        assert "even" in err

    def test_r_too_large_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "4", "--r", "3")
        assert code == EXIT_USAGE
        assert "n/2" in err

    @pytest.mark.parametrize("n, r", [(",", "1"), ("4", ",")])
    def test_empty_list_rejected(self, capsys, n, r):
        code, out, err = run_cli(capsys, "bounds", "--n", n, "--r", r)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: n and r lists must be non-empty\n"


class TestExact:
    def test_uniform_n2_r1(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--n", "2", "--r", "1", "--ell", "1", "--init", "uniform"
        )
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["expected"]) == pytest.approx(2.5, abs=1e-12)

    def test_plateau_center_start(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exact", "--function", "plateau", "--n", "4", "--r", "2",
            "--init", "ones=2",
        )
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["expected"]) == pytest.approx(8.0, abs=1e-12)

    def test_multi_flip_kernel_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--n", "10", "--r", "2", "--ell", "3", "--init", "ones=4"
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["expected"]) > 0
        assert float(row["expected_uniform"]) > 0

    @pytest.mark.parametrize("ell", ["1", "3"])
    def test_nonoptimal_and_point_starts(self, capsys, ell):
        base = ("exact", "--n", "20", "--r", "2", "--ell", ell)
        code, out, _ = run_cli(capsys, *base, "--init", "ones=11")
        assert code == EXIT_OK
        (fixed,) = parse_csv(out)
        code, out, _ = run_cli(capsys, *base, "--init", "point=" + "01" * 5 + "1" * 6 + "0" * 4)
        assert code == EXIT_OK
        (point,) = parse_csv(out)
        assert point["expected"] == fixed["expected"]
        code, out, _ = run_cli(capsys, *base, "--init", "uniform-nonopt")
        assert code == EXIT_OK
        (nonopt,) = parse_csv(out)
        # optimal starts take 0 steps, so excluding them raises the mean
        assert float(nonopt["expected"]) > float(nonopt["expected_uniform"]) > 0

    @pytest.mark.parametrize(
        "function,r,init,message",
        [
            ("majority", "2", "point=0101", "point has length 4"),
            ("plateau", "0", "uniform-nonopt", "every level is optimal"),
        ],
    )
    def test_unusable_starts_exit_2(self, capsys, function, r, init, message):
        code, _, err = run_cli(
            capsys, "exact", "--function", function, "--n", "20", "--r", r, "--init", init
        )
        assert code == EXIT_USAGE
        assert message in err

    def test_constant_plateau_r0(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--function", "plateau", "--n", "8", "--r", "0"
        )
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["expected"]) == 0.0

    # a constant objective answers 0.0 without a kernel, but its flip size
    # must still lie in [1..n], as for every other objective
    @pytest.mark.parametrize("function,r", [("plateau", "0"), ("plateau", "2"), ("majority", "0")])
    @pytest.mark.parametrize("ell", ["0", "9"])
    def test_flip_size_outside_1_to_n_exits_2(self, capsys, function, r, ell):
        code, out, err = run_cli(
            capsys, "exact", "--function", function, "--n", "8", "--r", r, "--ell", ell
        )
        assert code == EXIT_USAGE and out == ""
        assert "ell must lie in [1..n]" in err


    def test_kernel_rows_exact_at_n1000(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--n", "1000", "--r", "4", "--ell", "3")
        assert code == EXIT_OK, err
        assert float(parse_csv(out)[0]["expected"]) > 0

    @pytest.mark.parametrize("ell", ["1", "3"])
    def test_expectation_past_the_float_range_prints_inf(self, capsys, ell):
        code, out, err = run_cli(capsys, "exact", "--n", "2048", "--r", "1000", "--ell", ell)
        assert code == EXIT_OK, err
        assert out.splitlines()[1].endswith(",inf,inf") and err == ""

    def test_unreachable_absorption_prints_inf(self, capsys):
        # four flips take level 2 of 4 to itself, and 1 and 3 to each other;
        # two flips take level 1 of 2 to itself.  From level 0 both flip to
        # the optimum in one step
        for argv, row in (
            (["--n", "4", "--r", "2", "--ell", "4"], "4,2,4,uniform,inf,inf"),
            (["--n", "4", "--r", "2", "--ell", "4", "--init", "ones=0"],
             "4,2,4,ones=0,1.0,inf"),
            (["--n", "2", "--r", "1", "--ell", "2", "--init", "ones=0"],
             "2,1,2,ones=0,1.0,inf"),
        ):
            code, out, err = run_cli(capsys, "exact", *argv)
            assert code == EXIT_OK and err == ""
            assert out.splitlines()[1] == row


class TestDriftCheck:
    def test_pass_and_tight_state(self, capsys):
        code, out, _ = run_cli(capsys, "drift-check", "--n", "4", "--r", "2")
        assert code == EXIT_OK
        rows = {row["m"]: row for row in parse_csv(out)}
        assert float(rows["3"]["slack"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows["2"]["drift"]) == pytest.approx(8.0, abs=1e-12)

    def test_exit_codes_defined(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_CHECK_FAILED) == (0, 2, 3)


class TestCompliance:
    def test_single_flip(self, capsys):
        code, out, _ = run_cli(capsys, "compliance", "--n", "8", "--ell", "1")
        assert code == EXIT_OK
        assert parse_csv(out)[0]["compliant"] == "true"

    def test_inversion(self, capsys):
        code, out, _ = run_cli(capsys, "compliance", "--n", "8", "--ell", "8")
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert row["compliant"] == "false"
        assert row["violation"].startswith("low=")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bad_n_named(self, capsys, n):
        code, out, err = run_cli(capsys, "compliance", "--n", n, "--ell", "1")
        assert code == EXIT_USAGE
        assert f"n must be at least 1, got n={n}" in err
        assert out == ""


class TestSimulate:
    def test_deterministic_stdout(self, capsys):
        argv = (
            "simulate", "--function", "majority", "--n", "12", "--r", "2",
            "--runs", "4", "--seed", "11",
        )
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_censored_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--function", "plateau", "--n", "20", "--r", "5",
            "--init", "ones=10", "--cap", "3", "--seed", "1",
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert row["censored"] == "true"
        assert row["runtime"] == ""

    def test_ell_exceeding_n_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "4", "--r", "1", "--ell", "9"
        )
        assert code == EXIT_USAGE
        assert "ell" in err


class TestRepeatedCalls:
    def test_calls_in_one_process_are_independent(self, capsys):
        defaults = ("simulate", "--n", "12", "--runs", "3")
        flags = (
            "simulate", "--function", "plateau", "--n", "12", "--r", "3", "--runs", "3",
            "--init", "ones=6", "--cap", "40", "--seed", "9",
        )
        code, first, _ = run_cli(capsys, *defaults)
        assert code == EXIT_OK
        code, with_flags, _ = run_cli(capsys, *flags)
        assert code == EXIT_OK and with_flags != first
        code, out, err = run_cli(capsys, "simulate", "--n", "12", "--bogus")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --bogus" in err
        code, _, err = run_cli(capsys, "simulate", "--n", "twelve")
        assert code == EXIT_USAGE and "invalid int value" in err
        assert run_cli(capsys, "simulate", "--help")[0] == EXIT_OK
        assert run_cli(capsys, *defaults) == (EXIT_OK, first, "")
        assert run_cli(capsys, *flags)[:2] == (EXIT_OK, with_flags)


class TestSweep:
    def test_stdout_csv(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--function", "majority", "--n", "12", "--ell", "1,2",
            "--r", "2", "--runs", "40", "--seed", "3",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [row["ell"] for row in rows] == ["1", "2"]
        assert err == ""

    def test_censored_cells_warned_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--function", "plateau", "--n", "20", "--ell", "1", "--r", "5",
            "--runs", "5", "--seed", "1", "--init", "ones=10", "--cap", "3",
        )
        assert code == EXIT_OK
        assert out == (GOLDEN / "out_sweep_censored.txt").read_text()
        assert err.splitlines() == [
            "warning: cell n=20 r=5 ell=1: 5 of 5 runs censored by the iteration "
            "cap; the statistics exclude them"
        ]

    def test_nonoptimal_start_on_an_everywhere_optimal_objective(self, capsys):
        # rejected when the cell is built, before any run draws a start
        code, out, err = run_cli(
            capsys, "sweep", "--function", "plateau", "--n", "10", "--r", "0",
            "--init", "uniform-nonopt",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: every level is optimal: no non-optimal start exists\n"

    def test_row_depends_on_its_cell_alone(self, capsys):
        # a run's stream is keyed by its cell and run index, so listing
        # another cell first or splitting runs over workers changes no row
        common = ("sweep", "--n", "40", "--r", "3", "--runs", "60", "--seed", "1")
        rows = []
        for extra in (("--ell", "1"), ("--ell", "2,1"), ("--ell", "2,1", "--workers", "2")):
            code, out, _ = run_cli(capsys, *common, *extra)
            assert code == EXIT_OK
            rows.append([line for line in out.splitlines() if line.startswith("40,3,1,")])
        assert len(rows[0]) == 1
        assert rows[0] == rows[1] == rows[2]

    def test_seed_outside_key_range_rejected(self, capsys):
        # -1 would otherwise replay seed 2**64 - 1
        code, out, err = run_cli(
            capsys, "sweep", "--n", "12", "--r", "2", "--runs", "2", "--seed", "-1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: seed must lie in [0, 2**64)")

    def test_config_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nfunction = majority\nn = 12\nell = 1\nr = 2\n"
            "runs = 30\nseed = 5\n"
        )
        code1, out1, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        code2, out2, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--runs", "10"
        )
        assert code1 == code2 == EXIT_OK
        assert parse_csv(out1)[0]["runs"] == "30"
        assert parse_csv(out2)[0]["runs"] == "10"

    def test_config_without_section_header(self, capsys, tmp_path):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("n = 12\nruns = 5\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot parse config file")

    @pytest.mark.parametrize("key", ["n", "ell"])
    def test_config_bad_int_list(self, capsys, tmp_path, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[sweep]\n{key} = 10,x\nruns = 5\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(
            f"error: config key {key}: expected comma-separated integers: '10,x'"
        )

    @pytest.mark.parametrize(
        "config,argv,message",
        [
            (None, ["--r", "sqrtx", "--runs", "2"],
             "r must be an integer or 'sqrt', got 'sqrtx'"),
            ("r = sqrtx\nruns = 2", [], "r must be an integer or 'sqrt', got 'sqrtx'"),
            ("runs = abc", [],
             "config key runs: invalid literal for int() with base 10: 'abc'"),
        ],
        ids=["r-flag", "r-key", "runs-key"],
    )
    def test_bad_setting_names_itself(self, capsys, tmp_path, config, argv, message):
        if config is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"[sweep]\n{config}\n")
            argv = [*argv, "--config", str(cfg)]
        code, out, err = run_cli(capsys, "sweep", "--n", "10", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["abc", "5.0", ""])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_init_count_names_the_init(self, capsys, tmp_path, value, source):
        argv = ["--n", "100", "--r", "10", "--ell", "1", "--runs", "3"]
        if source == "flag":
            argv += ["--init", f"ones={value}"]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"[sweep]\ninit = ones={value}\n")
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: init ones={value}: J must be an integer from 0 to n: "
            f"invalid literal for int() with base 10: {value!r}\n"
        )

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(
            "[sweep]\nfunction = majority\nn = 20\nr = 2\nells = 1,3\nruns = 3\nseed = 4\n"
        )
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: unknown config key ells; accepted keys: function, n, ell,")

    def test_file_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "12", "--ell", "1,3", "--r", "2", "--runs", "25",
            "--seed", "3", "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == EXIT_OK
        assert csv_path.read_text().startswith("n,r,ell,runs,")
        assert ET.parse(str(svg_path)).getroot().tag.endswith("svg")

    def test_identical_invocations_identical_files(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "sweep", "--n", "12", "--ell", "1,3", "--r", "2", "--runs", "25",
                "--seed", "3", "--out", str(path),
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sqrt_rule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "16", "--ell", "1", "--r", "sqrt", "--runs", "10",
            "--seed", "2",
        )
        assert code == EXIT_OK
        assert parse_csv(out)[0]["r"] == "4"


class TestRestartsAndWmodel:
    def test_restarts_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "restarts", "--n", "10", "--r", "2", "--runs", "200", "--seed", "4"
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert 0.3 < float(row["p0_hat"]) < 0.7

    def test_wmodel_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "wmodel", "--blocks", "2", "--k", "4", "--runs", "200", "--seed", "4"
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["block_bound"]) == 8.0
        assert 0.5 < float(row["ratio"]) < 1.5

    @pytest.mark.parametrize(
        "argv",
        [
            ("restarts", "--n", "10", "--r", "2", "--runs", "0"),
            ("wmodel", "--blocks", "2", "--k", "4", "--runs", "0"),
            ("restarts", "--n", "10", "--r", "2", "--runs", "5", "--workers", "0"),
            ("wmodel", "--blocks", "2", "--k", "4", "--runs", "5", "--workers", "0"),
            ("sweep", "--n", "10", "--r", "2", "--runs", "5", "--workers", "0"),
            ("restarts", "--n", "10", "--r", "2", "--runs", "5", "--workers", "-2"),
            ("simulate", "--n", "10", "--r", "2", "--runs", "0"),
            ("simulate", "--n", "10", "--r", "2", "--runs", "-3"),
        ],
    )
    def test_zero_runs_rejected(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        what = "workers" if "--workers" in argv else "runs"
        assert f"{what} must be at least 1" in err

    def test_restarts_without_surplus_rejected_before_any_run(self, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_cell", no_run)
        code, out, err = run_cli(capsys, "restarts", "--n", "10", "--r", "0", "--runs", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: restart statistics need a surplus r >= 1, got r=0\n"

    def test_wmodel_odd_k_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "wmodel", "--blocks", "2", "--k", "3", "--runs", "10"
        )
        assert code == EXIT_USAGE
        assert "even" in err


class TestTrajectoryAndPlot:
    def test_trajectory_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "trajectory", "--n", "10", "--r", "1", "--seed", "4"
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0]["t"] == "0"
        assert int(rows[-1]["ones"]) >= 6

    def test_trajectory_default_cap_is_bounded(self, capsys, tmp_path):
        # the only optimum is all ones: the run records 10**6 proposals,
        # not 10**9, and says it was censored
        path = tmp_path / "t.csv"
        code, out, err = run_cli(
            capsys, "trajectory", "--n", "100", "--r", "50", "--out", str(path)
        )
        assert code == EXIT_OK and out == ""
        assert err == "run censored by the iteration cap\n"
        lines = path.read_text().splitlines()
        assert lines[0] == "t,ones" and len(lines) == 1 + harness.TRAJECTORY_CAP + 1
        assert lines[-1].startswith(f"{harness.TRAJECTORY_CAP},")

    def test_plot_from_sweep_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        run_cli(
            capsys,
            "sweep", "--n", "12", "--ell", "1,2,4", "--r", "2", "--runs", "20",
            "--seed", "6", "--out", str(csv_path),
        )
        svg_path = tmp_path / "s.svg"
        code, _, _ = run_cli(
            capsys,
            "plot", "--in", str(csv_path), "--out", str(svg_path),
            "--x", "ell", "--y", "mean,median", "--logx", "--logy",
        )
        assert code == EXIT_OK
        assert ET.parse(str(svg_path)).getroot() is not None

    @pytest.mark.parametrize("row", ["1", "1,2,3"], ids=["short", "long"])
    def test_plot_rejects_a_ragged_row(self, capsys, tmp_path, row):
        csv_path = tmp_path / "ragged.csv"
        csv_path.write_text(f"ell,mean\n{row}\n")
        code, out, err = run_cli(
            capsys, "plot", "--in", str(csv_path), "--out", str(tmp_path / "r.svg")
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "line 2:" in err
        assert not (tmp_path / "r.svg").exists()


class TestTrappedRuns:
    """Runs that can never reach an optimum: exit 2 up front, never a hang."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--function", "majority", "--n", "100", "--r", "10", "--ell", "100",
             "--runs", "5"),
            ("simulate", "--function", "onemax", "--n", "7", "--ell", "7"),
            ("sweep", "--function", "onemax", "--n", "10", "--ell", "2,3"),
            ("trajectory", "--n", "100", "--r", "10", "--ell", "100"),
        ],
    )
    def test_rejected_within_seconds(self, argv):
        # a subprocess with a timeout, so that a regression fails instead of hanging
        proc = subprocess.run(
            [sys.executable, "-m", "plateaulab.cli", *argv],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: runs can never finish")
        assert "ones count" in proc.stderr and "--cap" in proc.stderr

    def test_explicit_cap_still_censors(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--function", "onemax", "--n", "10", "--ell", "2", "--runs", "20",
            "--cap", "2000", "--seed", "1",
        )
        assert code == EXIT_OK
        censored = int(parse_csv(out)[0]["censored"])
        assert censored > 0
        assert err.splitlines() == [
            f"warning: cell n=10 r=0 ell=2: {censored} of 20 runs censored by the "
            "iteration cap; the statistics exclude them"
        ]
        code, out, _ = run_cli(
            capsys, "simulate", "--function", "onemax", "--n", "7", "--ell", "7",
            "--cap", "50", "--runs", "3",
        )
        assert code == EXIT_OK
        assert [row["censored"] for row in parse_csv(out)] == ["true"] * 3


# every table command at a toy size; the simulate runs are cut at the cap
# 2 of 6 times, so its rows print both true and false
TABLE_COMMANDS = [
    ["bounds", "--n", "4,6", "--r", "1,2"],
    ["exact", "--n", "10", "--r", "2"],
    ["drift-check", "--n", "12", "--r", "3"],
    ["compliance", "--n", "12", "--ell", "3"],
    ["simulate", "--n", "20", "--r", "2", "--runs", "6", "--cap", "20"],
    ["sweep", "--n", "20", "--r", "2", "--ell", "1,3", "--runs", "5"],
    ["restarts", "--n", "20", "--r", "2", "--runs", "5"],
    ["wmodel", "--blocks", "4", "--k", "4", "--runs", "5"],
    ["trajectory", "--n", "20", "--r", "2"],
]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: argv[0])
def test_out_file_is_the_printed_table(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    path = tmp_path / "table.csv"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == EXIT_OK and printed == ""
    assert path.read_bytes() == out.encode()
    if argv[0] == "simulate":
        assert {row["censored"] for row in parse_csv(out)} == {"true", "false"}


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--n", "4", "--r", "1", "--bogus")
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "optimize")
        assert code == EXIT_USAGE

    def test_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "--n", "4")
        assert code == EXIT_USAGE


class TestColdStart:
    def test_cli_import_leaves_heavy_modules_unloaded(self):
        # every command pays for what importing the CLI loads; these modules
        # serve only SVG escaping (xml.sax pulls in the http and ssl stacks)
        # and --workers > 1 (multiprocessing)
        heavy = ["xml.sax", "http.client", "ssl", "multiprocessing",
                 "concurrent.futures.process"]
        code = (
            "import sys, plateaulab.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_first_summary_leaves_numpy_ma_unloaded(self):
        # np.percentile imports numpy.ma on its first call, about 8 ms that
        # every one-shot sweep, restarts or wmodel command would pay
        code = (
            "import sys, plateaulab.cli; "
            "from plateaulab.harness import CellStats; "
            "CellStats.from_runtimes([5, 1, None, 9]); "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_loads_numpy_random_only_as_numpy_does(self):
        # numpy.random loads on a command's first draw, not on import: a
        # command that draws nothing does not pay for it.  The reference is
        # what importing numpy alone loads, which differs across releases
        code = (
            "import sys; import {}; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        )
        loaded = []
        for module in ("numpy", "plateaulab.cli"):
            proc = subprocess.run(
                [sys.executable, "-c", code.format(module)],
                capture_output=True, text=True, timeout=60, env=child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            loaded.append(proc.stdout.strip())
        assert loaded[1] == loaded[0]


class TestHelpGolden:
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_top_level_help(self):
        assert build_parser().format_help() == (GOLDEN / "help_main.txt").read_text()

    @pytest.mark.parametrize(
        "name",
        [
            "simulate", "sweep", "exact", "bounds", "drift-check",
            "compliance", "restarts", "wmodel", "trajectory", "plot",
        ],
    )
    def test_subcommand_help(self, name):
        parser = build_parser()
        sub = parser._subparsers._group_actions[0].choices[name]
        assert sub.format_help() == (GOLDEN / f"help_{name}.txt").read_text()

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

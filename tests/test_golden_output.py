"""Byte-exact stdout and file outputs of the CLI at fixed small seeds.

Each ``out_<name>.txt`` under ``tests/golden`` holds the stdout of one
command; ``file_sweep.csv`` and ``file_sweep.svg`` hold the ``--out`` and
``--svg`` files of one sweep.  A change that alters any of them alters
a pinned seeded result or the table format.
"""

import pathlib

import pytest

from plateaulab.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "sweep_workers2": (
        "sweep", "--function", "majority", "--n", "12,16", "--ell", "1,3",
        "--r", "2", "--runs", "30", "--seed", "3", "--workers", "2",
    ),
    "sweep_nonopt": (
        "sweep", "--function", "plateau", "--n", "14", "--ell", "1,2", "--r", "3",
        "--runs", "20", "--seed", "8", "--init", "uniform-nonopt",
    ),
    "sweep_censored": (
        "sweep", "--function", "plateau", "--n", "20", "--ell", "1", "--r", "5",
        "--runs", "5", "--seed", "1", "--init", "ones=10", "--cap", "3",
    ),
    "sweep_neutral": (
        "sweep", "--function", "onemax-neutral", "--n", "6", "--k", "4",
        "--ell", "1", "--runs", "6", "--seed", "2",
    ),
    # n=130: ell=65 draws its flips, ell=129 the one position it keeps
    "sweep_multiword": (
        "sweep", "--function", "majority", "--n", "130", "--r", "4",
        "--ell", "2,3,65,129", "--runs", "20", "--seed", "5", "--cap", "100000",
    ),
    # rejection-regime subset draws (ell <= n/64) next to Fisher-Yates ones
    "sweep_rejection": (
        "sweep", "--function", "majority", "--n", "256", "--r", "6",
        "--ell", "2,4,5", "--runs", "10", "--seed", "9",
    ),
    "sweep_neutral_ell3": (
        "sweep", "--function", "onemax-neutral", "--n", "5", "--k", "4",
        "--ell", "3", "--runs", "6", "--seed", "2",
    ),
    # a cap that is no multiple of the engine's proposal batches
    "sweep_cap37": (
        "sweep", "--function", "plateau", "--n", "40", "--r", "10", "--ell", "3",
        "--runs", "5", "--init", "ones=20", "--cap", "37",
    ),
    # odd k, blocks straddling 64-bit words, single and multi-bit flips
    "sweep_neutral_k7": (
        "sweep", "--function", "onemax-neutral", "--n", "20", "--k", "7",
        "--ell", "1,2,5", "--runs", "10", "--seed", "7",
    ),
    # n=8200: rejection draws (ell <= 128) next to lockstep shuffles
    # (ell >= 129) of 1, 2, ..., 32, then 63 rows
    "sweep_n8200": (
        "sweep", "--function", "majority", "--n", "8200", "--r", "10",
        "--ell", "2,128,129,200", "--runs", "4", "--init", "ones=4100", "--cap", "300",
        "--seed", "6",
    ),
    "wmodel_k6": ("wmodel", "--blocks", "13", "--k", "6", "--runs", "40", "--seed", "5"),
    "trajectory_ell7": ("trajectory", "--n", "130", "--r", "5", "--ell", "7", "--seed", "3"),
    "restarts": ("restarts", "--n", "10", "--r", "2", "--runs", "200", "--seed", "4"),
    # a cap that censors 24 of the 300 runs, 15 seeking the plateau and 9
    # returning to n/2
    "restarts_censored": (
        "restarts", "--n", "100", "--r", "5", "--runs", "300", "--cap", "300", "--seed", "3",
    ),
    # a seed whose single run does not retry: the retry statistics print nan
    "restarts_no_retry": ("restarts", "--n", "4", "--r", "1", "--runs", "1", "--seed", "2"),
    "wmodel": ("wmodel", "--blocks", "3", "--k", "4", "--runs", "150", "--seed", "4"),
    "drift_check": ("drift-check", "--n", "12", "--r", "3"),
    "simulate": (
        "simulate", "--function", "majority", "--n", "12", "--r", "2",
        "--ell", "2", "--runs", "5", "--seed", "11",
    ),
    "trajectory": ("trajectory", "--n", "10", "--r", "1", "--seed", "4"),
    "bounds": ("bounds", "--n", "4,10", "--r", "1,2"),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes(name, capsys):
    code = main(list(COMMANDS[name]))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / f"out_{name}.txt").read_text()


def test_restarts_no_retry_golden_keeps_its_case():
    # a regenerated golden must still show a report without retried runs
    header, row = (GOLDEN / "out_restarts_no_retry.txt").read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["retried_runs"] == "0"
    assert fields["mean_retries"] == fields["retries_stderr"] == "nan"


# full-precision exact expectations over both objectives, three sizes
# (r about sqrt(n)/2), short and long flips, a fixed and the uniform start
EXACT_GRID = [
    (function, n, r, ell, init)
    for function in ("majority", "plateau")
    for n, r in ((64, 4), (256, 8), (1024, 16))
    for ell in (2, 3, 10)
    for init in (f"ones={n // 2 + 1}", "uniform")
]


def test_exact_grid_bytes(capsys):
    lines = ["function,n,r,ell,init,expected,expected_uniform"]
    for function, n, r, ell, init in EXACT_GRID:
        code = main([
            "exact", "--function", function, "--n", str(n), "--r", str(r),
            "--ell", str(ell), "--init", init,
        ])
        assert code == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert header == "n,r,ell,init,expected,expected_uniform"
        lines.append(f"{function},{row}")
    assert "\n".join(lines) + "\n" == (GOLDEN / "out_exact_grid.txt").read_text()


def test_sweep_file_bytes(tmp_path, capsys):
    csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
    code = main([
        "sweep", "--n", "12,16", "--ell", "1,2,4", "--r", "2", "--runs", "25",
        "--seed", "6", "--out", str(csv_path), "--svg", str(svg_path),
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert csv_path.read_bytes() == (GOLDEN / "file_sweep.csv").read_bytes()
    assert svg_path.read_bytes() == (GOLDEN / "file_sweep.svg").read_bytes()

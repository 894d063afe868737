"""The desk-scale scripts under ``scripts/`` run end to end at toy sizes."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,argv,files",
    [
        ("ell_sweep.py", ["--n", "16", "--runs", "5"], ["ell_sweep_n16.csv", "ell_sweep_n16.svg"]),
        # at n=16 the r=8 cell's big flips are trapped and rejected
        ("r_sweep.py", ["--n", "20", "--runs", "5"], ["r_sweep_n20.csv", "r_sweep_n20.svg"]),
        (
            "trajectories.py",
            ["--n", "36"],
            ["trajectory_n36_ell1.csv", "trajectory_n36_ell3.csv",
             "trajectory_n36_ell18.csv", "trajectories_n36.svg"],
        ),
    ],
    ids=["ell_sweep", "r_sweep", "trajectories"],
)
def test_script_writes_its_files(tmp_path, script, argv, files):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (tmp_path / name).stat().st_size > 0, name

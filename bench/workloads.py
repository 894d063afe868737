"""The three workloads: the ``plateaulab`` command lines each one runs.

Everything here is derived from the workload seed, so one seed always
gives the same command lines.  The program sees only the generated flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep-ell", "ell1-batch", "exact-ladder")
SWEEP_ELLS = (1, 2, 4, 10, 25, 50, 66, 75)
EXACT_R = 4
EXACT_FUNCTIONS = ("majority", "plateau")
EXACT_ELLS = (3, 10)
# every later repetition draws fresh program seeds; more than a run can use
MAX_REPS = 200


@dataclass(frozen=True)
class Size:
    """Run counts of one repetition, and the exact ladder's rungs."""

    sweep_runs: int = 25
    batch_runs: int = 2000
    neutral_blocks: int = 100
    neutral_runs: int = 4
    ladder: tuple[int, ...] = (256, 1024, 4096)
    # share of the measuring time each rung gets, smallest n first
    rung_share: tuple[float, ...] = (0.5, 0.25, 0.25)


FULL = Size()
TOY = Size(
    sweep_runs=20,
    batch_runs=150,
    neutral_blocks=10,
    neutral_runs=2,
    ladder=(16, 32),
    rung_share=(0.5, 0.5),
)


@dataclass(frozen=True)
class Command:
    """One ``plateaulab`` invocation; ``kind`` and ``params`` drive its check."""

    kind: str
    params: dict
    argv: tuple[str, ...]


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def sweep_ell(rng: random.Random, size: Size) -> list[Command]:
    params = dict(function="majority", n=100, r=10, ells=SWEEP_ELLS, init="uniform",
                  runs=size.sweep_runs)
    argv = (
        "sweep", "--function", "majority", "--n", "100", "--r", "10",
        "--ell", ",".join(map(str, SWEEP_ELLS)), "--init", "uniform",
        "--runs", str(size.sweep_runs), "--seed", _seed(rng), "--workers", "1",
    )
    return [Command("sweep", params, argv)]


def ell1_batch(rng: random.Random, size: Size) -> list[Command]:
    runs = str(size.batch_runs)
    nb = size.neutral_blocks
    return [
        Command(
            "restarts",
            dict(n=100, r=5, runs=size.batch_runs),
            ("restarts", "--n", "100", "--r", "5", "--runs", runs,
             "--seed", _seed(rng), "--workers", "1"),
        ),
        Command(
            "sweep",
            dict(function="plateau", n=100, r=10, ells=(1,), init="ones=50",
                 runs=size.batch_runs),
            ("sweep", "--function", "plateau", "--n", "100", "--r", "10", "--ell", "1",
             "--init", "ones=50", "--runs", runs, "--seed", _seed(rng), "--workers", "1"),
        ),
        Command(
            "sweep",
            dict(function="majority", n=100, r=8, ells=(1,), init="uniform",
                 runs=size.batch_runs),
            ("sweep", "--function", "majority", "--n", "100", "--r", "8", "--ell", "1",
             "--runs", runs, "--seed", _seed(rng), "--workers", "1"),
        ),
        Command(
            "wmodel",
            dict(blocks=20, k=10, runs=size.batch_runs),
            ("wmodel", "--blocks", "20", "--k", "10", "--runs", runs,
             "--seed", _seed(rng), "--workers", "1"),
        ),
        Command(
            "neutral",
            dict(blocks=nb, k=10, runs=size.neutral_runs),
            ("sweep", "--function", "onemax-neutral", "--n", str(nb), "--k", "10",
             "--ell", "1", "--runs", str(size.neutral_runs), "--seed", _seed(rng),
             "--workers", "1"),
        ),
    ]


def ladder_rung(rng: random.Random, n: int) -> list[Command]:
    """The four exact problems at one n, each started from a transient level."""
    out = []
    for function in EXACT_FUNCTIONS:
        for ell in EXACT_ELLS:
            j = rng.randint(n // 2 - EXACT_R + 1, n // 2 + EXACT_R - 1)
            params = dict(function=function, n=n, r=EXACT_R, ell=ell, init=f"ones={j}")
            argv = (
                "exact", "--function", function, "--n", str(n), "--r", str(EXACT_R),
                "--ell", str(ell), "--init", f"ones={j}",
            )
            out.append(Command("exact", params, argv))
    return out


def plan(workload: str, seed: int, size: Size) -> list[list[list[Command]]]:
    """Groups of repetitions; each group runs in its own process.

    A simulation workload is one group of up to MAX_REPS repetitions with
    fresh program seeds.  The exact ladder has one group per rung, whose
    single repetition is that rung's four problems; the rungs run in
    separate processes so each peak memory belongs to one n.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-ell":
        return [[sweep_ell(rng, size) for _ in range(MAX_REPS)]]
    if workload == "ell1-batch":
        return [[ell1_batch(rng, size) for _ in range(MAX_REPS)]]
    if workload == "exact-ladder":
        return [[ladder_rung(rng, n)] for n in size.ladder]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

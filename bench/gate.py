"""Correctness gate: every output a workload wrote, checked against a reference.

Simulation outputs are pooled over the repetitions of one run and must
lie within GATE_SE standard errors of the exact value.  Exact answers
must match the reference to EXACT_RTOL.  Failed operations are counted:
a censored run, every run of a command that exited nonzero, and an exact
problem that exited nonzero or answered off the reference.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

import reference
from reference import Check, Pool, band_check
from workloads import Command


class References:
    """Exact expectations, computed once per problem."""

    def __init__(self):
        self._levels: dict[tuple, list[float]] = {}

    def expected(self, function: str, n: int, r: int, ell: int, init: str) -> float:
        key = (function, n, r, ell)
        if key not in self._levels:
            self._levels[key] = reference.hitting_levels(function, n, r, ell)
        return reference.expected(self._levels[key], init)


@dataclass
class Outcome:
    checks: list[Check] = field(default_factory=list)
    # failed operations that do not make the output wrong, such as a refusal
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # sweep proposals made in each pass (sum over cells of mean x uncensored runs)
    proposals: list[float] = field(default_factory=list)
    # exact ladder: n -> labels of the problems that failed
    failed_at: dict[int, list[str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks)


def rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _cmd_runs(cmd: Command) -> int:
    return cmd.params["runs"] * len(cmd.params.get("ells", (1,)))


def simulation(reps: list[list[Command]], passes: list[dict],
               refs: Optional[References] = None) -> Outcome:
    """Gate the repetitions of a sweep-ell or ell1-batch run."""
    refs = refs or References()
    out = Outcome()
    pools: dict[str, tuple[Pool, float, float]] = {}  # label -> pool, target, scale
    neutral_censored = 0
    exits: list[str] = []

    def pool(label: str, target: float, scale: float = 1.0) -> Pool:
        if label not in pools:
            pools[label] = (Pool(), target, scale)
        return pools[label][0]

    for i, done in enumerate(passes):
        made = 0.0
        for cmd, res in zip(reps[i], done["cmds"]):
            planned = _cmd_runs(cmd)
            out.attempted += planned
            if res["rc"] != 0:
                out.failed += planned
                err = res["err"].strip()[-200:]
                exits.append(f"{' '.join(cmd.argv)} -> exit {res['rc']}: {err}")
                continue
            p = cmd.params
            for row in rows(res["out"]):
                runs, censored = int(row["runs"]), int(row["censored"])
                out.failed += censored
                done_runs = runs - censored
                if cmd.kind == "neutral":
                    neutral_censored += censored
                elif cmd.kind == "sweep":
                    ell = int(row["ell"])
                    mean = float(row["mean"])
                    made += mean * done_runs
                    target = refs.expected(p["function"], p["n"], p["r"], ell, p["init"])
                    label = f"{p['function']} n={p['n']} r={p['r']} ell={ell} init={p['init']} mean"
                    pool(label, target).add(mean, float(row["stderr"]), done_runs)
                elif cmd.kind == "restarts":
                    pool(f"restarts n={p['n']} r={p['r']} p0", 0.5).add(
                        float(row["p0_hat"]), float(row["p0_stderr"]), done_runs)
                    retried = int(row["retried_runs"])
                    if retried:
                        pool(f"restarts n={p['n']} r={p['r']} mean retries", 2.0).add(
                            float(row["mean_retries"]), float(row["retries_stderr"]), retried)
                elif cmd.kind == "wmodel":
                    block = refs.expected("majority", p["k"], 1, 1, "uniform")
                    pool(f"wmodel blocks={p['blocks']} k={p['k']} ratio", 1.0,
                         p["blocks"] * block).add(
                        float(row["mean_runtime"]), float(row["stderr"]), done_runs)
        out.proposals.append(made)
    for label, (p, target, scale) in pools.items():
        out.checks.append(band_check(label, p, target, scale))
    if any(cmd.kind == "neutral" for cmd in reps[0]):
        out.checks.append(Check("onemax-neutral runs censored", float(neutral_censored), 0.0,
                                None, neutral_censored == 0))
    out.checks.extend(Check(f"exit: {e}", None, 0.0, None, False) for e in exits)
    return out


def exact(rungs: list[list[Command]], groups: list[dict],
          refs: Optional[References] = None) -> Outcome:
    """Gate the exact ladder: one rung of problems per group, repeated."""
    refs = refs or References()
    out = Outcome()
    for rung, result in zip(rungs, groups):
        n = rung[0].params["n"]
        out.failed_at[n] = []
        for k, cmd in enumerate(rung):
            p = cmd.params
            label = f"{p['function']} n={n} r={p['r']} ell={p['ell']} init={p['init']}"
            results = [done["cmds"][k] for done in result["passes"]]
            out.attempted += 1
            bad = [r for r in results if r["rc"] != 0]
            wrong = []
            for text in sorted({r["out"] for r in results if r["rc"] == 0}):
                row = rows(text)[0]
                for col, init in (("expected", p["init"]), ("expected_uniform", "uniform")):
                    ref = refs.expected(p["function"], n, p["r"], p["ell"], init)
                    got = float(row[col])
                    if not reference.close(got, ref):
                        wrong.append(Check(f"exact {label} {col}", got, ref, None, False))
            if bad or wrong:
                out.failed += 1
                out.failed_at[n].append(label)
            if wrong:
                out.checks.extend(wrong)
            elif not bad:
                out.checks.append(Check(f"exact {label} matches", None, 0.0, None, True))
            if bad:
                err = bad[0]["err"].strip().splitlines()
                out.notes.append(f"exact {label}: exit {bad[0]['rc']} in {len(bad)} of "
                                 f"{len(results)} passes: {err[-1] if err else ''}")
    smallest = rungs[0][0].params["n"]
    if out.failed_at[smallest]:
        # the gated rung solves at the commit that defined the benchmark
        out.checks.append(Check(f"every problem at n={smallest} solves", None, 0.0, None, False))
    return out


"""plateaulab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload sweep-ell --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads (see bench/README.md):
``sweep-ell``, ``ell1-batch`` and ``exact-ladder``.  Every workload runs
real ``plateaulab`` subcommands in a child process through ``cli.main``
with one worker, reads each output back from ``--out`` and checks it.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the workload runs once plain and once with spans around every layer
boundary, and the per-layer metrics are reported.  A table goes to
stdout, the full report (manifest, checks, every metric) to
``.bench_out/``, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every output is correct, 1 when a correctness check
failed (the JSON line is still printed), 2 for bad usage or a directory
without the plateaulab source, 3 when the run itself broke (a worker
crashed or timed out, or a traced boundary recorded nothing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import layers
import numpy as np
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PROBES = 5
# every run must end within 180 s; leave room for checks and reporting
DEADLINE_S = 165.0
# the measured process gets one thread, so numbers measure the program
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a median needs a few passes; a large exact rung may get only one
MIN_PASSES = 3

# end-to-end metrics of the result line (and BENCHMARK.json); every workload has each
END_TO_END = (("setup_s", "s"), ("wall_norm", "cal"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The run itself broke; no result can be reported."""


class Session:
    """Where one benchmark run keeps its files, and its time limit."""

    def __init__(self, root: str, workload: str, seed: int, trace: bool):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(root, ".bench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=self.out_dir)
        self.run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **CHILD_ENV)
        self._groups = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _call(self, argv: list[str]) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time before {argv[2:]}")
        try:
            return subprocess.run(argv, capture_output=True, text=True, env=self.env,
                                  timeout=left, cwd=self.root)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker still running at the {DEADLINE_S:g} s limit") from exc

    def setup_probe(self, workload: str, seed: int) -> float:
        t = time.perf_counter()
        proc = self._call([sys.executable, WORKER, "--setup", workload, str(seed), self.src])
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        return wall

    def group(self, reps: list[list[workloads.Command]], budget_s: float, min_passes: int,
              max_passes: int, trace: bool) -> dict:
        """Run repetitions in a fresh worker until the budget is spent."""
        self._groups += 1
        tag = f"g{self._groups}"
        spec = {
            "src": self.src,
            "reps": [[list(c.argv) for c in rep] for rep in reps],
            "budget_s": budget_s,
            "min_passes": min_passes,
            "max_passes": max_passes,
            "trace": trace,
            "run_id": self.run_id,
            "out": os.path.join(self.tmp, f"{tag}.csv"),
            "trace_path": os.path.join(self.out_dir, f"spans-{self.run_id}-{tag}.jsonl"),
        }
        spec_path = os.path.join(self.tmp, f"{tag}-spec.json")
        result_path = os.path.join(self.tmp, f"{tag}-result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc = self._call([sys.executable, WORKER, spec_path, result_path])
        if proc.returncode != 0:
            raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            result["spans_file"] = os.path.relpath(spec["trace_path"], self.root)
        return result


def quantile_summary(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    k = len(values)
    out = {"samples": k, "median": statistics.median(values)}
    if k >= 2:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    pct = math.floor(100 * (1 - 10 / k))
    if pct > 50:
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def measure(session: Session, workload: str, groups: list, seconds: float,
            size: workloads.Size, trace: bool, min_passes=None) -> list[dict]:
    """One worker per group; ``min_passes`` pins a traced rerun to the plain pass count."""
    exact = workload == "exact-ladder"
    shares = size.rung_share if exact else (1.0,)
    out = []
    for i, (reps, share) in enumerate(zip(groups, shares)):
        if min_passes is not None:
            lo = hi = min_passes[i]
        elif exact:
            lo, hi = (MIN_PASSES if i == 0 else 1), 10**9
        else:
            lo, hi = MIN_PASSES, len(reps)
        out.append(session.group(reps, seconds * share, lo, hi, trace))
    return out


def check(workload: str, groups: list, results: list[dict], refs=None) -> gate.Outcome:
    if workload == "exact-ladder":
        return gate.exact([g[0] for g in groups], results, refs)
    return gate.simulation(groups[0], results[0]["passes"], refs)


def end_to_end(workload: str, results: list[dict], outcome: gate.Outcome,
               setup: list[float], size: workloads.Size) -> tuple[dict, dict]:
    """(result-line metrics, full report metrics) of an untraced run."""
    report: dict[str, dict] = {}

    def put(name, value, unit, samples=None):
        report[name] = {"value": value, "unit": unit}
        if samples:
            report[name].update(quantile_summary(samples))

    put("setup_s", statistics.median(setup), "s", setup)
    put("fail_ratio", outcome.failed / outcome.attempted, "ratio")
    # the result line carries the exact ladder's smallest rung, which solves at every commit
    gated = results[0]["passes"]
    walls = [p["wall_s"] for p in gated]
    norms = [p["norm"] for p in gated]
    put("wall_s", statistics.median(walls), "s", walls)
    put("wall_norm", statistics.median(norms), "cal", norms)
    put("peak_rss_mb", results[0]["maxrss_mb"], "MB")
    if workload == "sweep-ell":
        rates = [m / w for m, w in zip(outcome.proposals, walls)]
        put("proposals_per_s", statistics.median(rates), "1/s", rates)
    if workload == "exact-ladder":
        for n, res in zip(size.ladder, results):
            walls = [p["wall_s"] for p in res["passes"]]
            if not outcome.failed_at[n]:
                put(f"exact_s.n{n}", statistics.median(walls), "s", walls)
            else:
                put(f"exact_s.n{n}", None, "s")
        top = size.ladder[-1]
        put(f"exact_rss_mb.n{top}",
            results[-1]["maxrss_mb"] if not outcome.failed_at[top] else None, "MB")
    line = {name: {"value": report[name]["value"], "unit": unit} for name, unit in END_TO_END}
    return line, report


def identical_outputs(plain: list[dict], traced: list[dict]) -> gate.Check:
    """Tracing must not change a single output of the same seeds."""
    same = all(
        [c["out"] for c in p["cmds"]] == [c["out"] for c in q["cmds"]]
        for a, b in zip(plain, traced) for p, q in zip(a["passes"], b["passes"])
    )
    return gate.Check("traced outputs equal plain outputs", None, 0.0, None, same)


def require_boundaries(workload: str, results: list[dict]) -> None:
    """A boundary the workload must cross that recorded nothing breaks the run."""
    seen = set().union(*(r["trace"]["crossed"] for r in results))
    lost = [b for b in tracer.required(workload) if b not in seen]
    if lost:
        raise BenchError(f"traced run recorded no span at: {', '.join(lost)}")


def manifest(session: Session, workload: str, seed: int, groups: list,
             results: list[dict]) -> dict:
    commit = None
    if os.path.isdir(os.path.join(session.root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=session.root,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commands = []
    for reps, res in zip(groups, results):
        # a simulation pass has its own seeds; an exact rung repeats one pass
        done = reps[: len(res["passes"])]
        commands.append({
            "passes": len(res["passes"]),
            "command_lines": [
                ["plateaulab " + " ".join(c.argv) + " --out <file>" for c in rep] for rep in done
            ],
        })
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "workload": workload,
        "seed": seed,
        "commands": commands,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        size: workloads.Size = workloads.FULL, probes: int = PROBES,
        refs=None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full report)."""
    groups = workloads.plan(workload, seed, size)
    session = Session(root, workload, seed, trace)
    try:
        if not trace:
            setup = [session.setup_probe(workload, seed) for _ in range(probes)]
            plain = measure(session, workload, groups, seconds, size, trace=False)
            outcome = check(workload, groups, plain, refs)
            metrics, report = end_to_end(workload, plain, outcome, setup, size)
            results = plain
        else:
            plain = measure(session, workload, groups, seconds / 2, size, trace=False)
            counts = [len(r["passes"]) for r in plain]
            results = measure(session, workload, groups, 0.0, size, trace=True,
                              min_passes=counts)
            outcome = check(workload, groups, plain, refs)
            outcome.checks.append(identical_outputs(plain, results))
            require_boundaries(workload, results)
            report = layers.metrics(results, plain, size.ladder,
                                    [g[0] for g in groups] if workload == "exact-ladder" else [],
                                    outcome.failed_at)
            metrics = {name: {"value": report[name]["value"], "unit": unit}
                       for name, unit in layers.RESULT_LINE}
        line = {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
        full = {
            "benchmark": "plateaulab",
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "manifest": manifest(session, workload, seed, groups, results),
            "result": line,
            "metrics": report,
            "checks": [c.line() for c in outcome.checks],
            "failed_operations": outcome.notes,
            "pass_wall_s": [[p["wall_s"] for p in r["passes"]] for r in results],
            "spans_files": [r["spans_file"] for r in results if "spans_file" in r],
        }
        return line, full
    finally:
        session.close()


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(full: dict, path: str) -> None:
    m = full["manifest"]
    print(f"plateaulab benchmark  workload={full['workload']} seed={full['seed']} "
          f"seconds={full['seconds']:g} trace={full['trace']}")
    print(f"commit={m['commit']} python={m['python']} numpy={m['numpy']} "
          f"cpu={m['cpu']!r} nproc={m['nproc']}")
    for line in full["checks"]:
        print("  " + line)
    for note in full["failed_operations"]:
        print("  FAILED " + note)
    res = full["result"]
    print(f"operations: attempted={res['attempted']} failed={res['failed']} "
          f"correct={str(res['correct']).lower()}")
    for name, m in full["metrics"].items():
        extra = ""
        if "samples" in m:
            spread = " ".join(f"{k}={_fmt(v)}" for k, v in m.items()
                              if k not in ("value", "unit", "samples", "kind"))
            extra = f"  samples={m['samples']} {spread}"
        kind = f"  [{m['kind']}]" if m.get("kind") not in (None, "measured") else ""
        print(f"  {name:<32} {_fmt(m['value']):>14} {m['unit']:<8}{extra}{kind}")
    print(f"report: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plateaulab", "cli.py")):
        print("error: no plateaulab source at ./src/plateaulab; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        line, full = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    path = os.path.join(".bench_out", f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json")
    with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print_report(full, path)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

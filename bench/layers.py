"""Per-layer metrics of a traced run, computed from the spans the workers kept.

Every metric is reported with its unit and how it was obtained:
``measured`` (timed around a call from the benchmark's own code),
``estimated`` (per-call cost from direct calls times the number of calls
the workload made), ``computed`` (an operation count from the problem
sizes) or ``count``.  Counts and a layer's time are per repetition of
the workload, summed over the exact ladder's rungs; per-call figures are
means.  A value is None where the workload never crossed the boundary,
and for an exact rung where some problem failed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Optional

from reference import level_value
from tracer import BLOCKED
from workloads import Command

LAYERS = ("cli", "harness", "ea", "core", "fitness", "oracle")
NAMED_ELLS = (1, 2, 10, 50)

# the per-layer metrics of the result line (and BENCHMARK.json); each is a
# number on every workload (a share or count is 0 where a layer is idle)
RESULT_LINE = (
    ("trace.overhead_ratio", "ratio"),
    ("cli.import_s", "s"),
    ("cli.overhead_ms", "ms"),
    *((f"{layer}.busy_share", "ratio") for layer in LAYERS),
    ("ea.runs", "count"),
    ("ea.proposals", "count"),
    ("ea.censored", "count"),
    ("core.subset_draws", "count"),
    ("core.hypergeom_calls", "count"),
    ("oracle.failed_problems", "count"),
)


def _div(a: float, b: float, scale: float = 1.0) -> Optional[float]:
    return a / b * scale if b else None


def metrics(traced: list[dict], untraced: list[dict], ladder: tuple[int, ...],
            rungs: list[list[Command]], failed_at: dict[int, list[str]]) -> dict[str, dict]:
    """All per-layer metrics of one traced run, keyed by name."""
    out: dict[str, dict] = {}

    def put(name: str, value, unit: str, kind: str = "measured") -> None:
        out[name] = {"value": value, "unit": unit, "kind": kind}

    busy = dict.fromkeys(LAYERS, 0.0)  # seconds per pass, summed over groups
    wall = 0.0
    spans = []
    leaf = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, seconds, calls per pass]
    keyed = defaultdict(lambda: [0, 0.0, 0.0])  # (name, key) -> the same
    fitness = defaultdict(lambda: [0.0, 0])  # class -> [estimated seconds, evaluations]
    per_pass = defaultdict(float)  # span name -> seconds per pass
    passes_of = [len(g["passes"]) for g in traced]
    for i, g in enumerate(traced):
        passes = passes_of[i]
        wall += statistics.fmean(p["wall_s"] for p in g["passes"])
        for s in g["trace"]["spans"]:
            spans.append(dict(s, group=i))
            busy[s["name"].split(".")[0]] += s["self"] / passes
            per_pass[s["name"]] += s["dur"] / passes
        for name, key, calls, secs in g["trace"]["leaves"]:
            busy[name.split(".")[0]] += secs / passes
            for slot in (leaf[name], keyed[(name, key)]):
                slot[0] += calls
                slot[1] += secs
                slot[2] += calls / passes
        for cls, (per_call, evaluations) in g["trace"]["fitness"].items():
            fitness[cls][0] += per_call * evaluations
            fitness[cls][1] += evaluations
            busy["fitness"] += per_call * evaluations / passes

    traced_norm = sum(sum(p["norm"] for p in g["passes"]) for g in traced)
    plain_norm = sum(sum(p["norm"] for p in g["passes"]) for g in untraced)
    put("trace.overhead_ratio", traced_norm / plain_norm, "ratio")
    for layer in LAYERS:
        kind = "estimated" if layer == "fitness" else "measured"
        put(f"{layer}.self_s", busy[layer], "s", kind)
        put(f"{layer}.busy_share", busy[layer] / wall, "ratio", kind)

    mains = [s for s in spans if s["name"] == "cli.main"]
    put("cli.import_s", statistics.median(g["import_s"] for g in traced), "s")
    put("cli.overhead_ms", _div(sum(s["self"] for s in mains), len(mains), 1e3), "ms")
    put("harness.stats_ms", per_pass.get("harness.stats", 0.0) * 1e3 or None, "ms")
    put("harness.csv_ms", per_pass.get("harness.csv", 0.0) * 1e3 or None, "ms")

    runs = [s for s in spans if s["name"] == "ea.run"]
    put("ea.runs", sum(1 / passes_of[s["group"]] for s in runs), "count", "count")
    put("ea.proposals", sum(s["attrs"]["proposals"] / passes_of[s["group"]] for s in runs),
        "count", "count")
    put("ea.censored", sum(s["attrs"]["censored"] / passes_of[s["group"]] for s in runs),
        "count", "count")
    fixed = [s["dur"] for s in runs if s["attrs"]["proposals"] == 0]
    put("ea.run_fixed_us", statistics.fmean(fixed) * 1e6 if fixed else None, "us")
    by_key = defaultdict(lambda: [0.0, 0])
    for s in runs:
        by_key[s["attrs"]["key"]][0] += s["self"]
        by_key[s["attrs"]["key"]][1] += s["attrs"]["proposals"]
    keys = [f"ell{e}" for e in NAMED_ELLS] + ["traced", "blocked"]
    for key in keys + sorted(set(by_key) - set(keys), key=lambda k: int(k[3:])):
        secs, props = by_key.get(key, (0.0, 0))
        put(f"ea.ns_per_proposal.{key}", _div(secs, props, 1e9), "ns")

    def per_call(label: str, slot) -> None:
        calls, secs, _ = slot if slot else (0, 0.0, 0.0)
        put(label, _div(secs, calls, 1e6), "us")

    for name in ("ea.restart_extract", "core.rng_setup", "core.init_sample",
                 "core.hypergeom_pmf"):
        per_call(f"{name}_us", leaf.get(name))
    draws = {key for name, key in keyed if name == "core.subset_draw"}
    named = [f"ell{e}" for e in NAMED_ELLS if e > 1]
    for key in named + sorted(draws - set(named), key=lambda k: int(k[3:])):
        per_call(f"core.subset_draw_us.{key}", keyed.get(("core.subset_draw", key)))
    put("core.subset_draws", leaf.get("core.subset_draw", (0, 0, 0.0))[2], "count", "count")
    put("core.hypergeom_calls", leaf.get("core.hypergeom_pmf", (0, 0, 0.0))[2], "count", "count")

    level = [v for cls, v in fitness.items() if cls not in BLOCKED]
    put("fitness.level_eval_ns",
        _div(sum(v[0] for v in level), sum(v[1] for v in level), 1e9), "ns", "estimated")
    for cls, name in zip(BLOCKED, ("fitness.block_eval_us", "fitness.neutral_eval_us")):
        secs, evals = fitness.get(cls, (0.0, 0))
        put(name, _div(secs, evals, 1e6), "us", "estimated")

    _oracle(put, traced, ladder, rungs, failed_at)
    return out


def _oracle(put, traced, ladder, rungs, failed_at) -> None:
    """Per-rung oracle metrics; None unless every problem of the rung passed."""
    by_n = defaultdict(lambda: defaultdict(float))
    residual: dict[int, float] = {}
    for g in traced:
        passes = len(g["passes"])
        for s in g["trace"]["spans"]:
            n = s["attrs"].get("n")
            if s["name"].startswith("oracle.") and n is not None:
                by_n[n][s["name"]] += s["dur"] / passes
            if s["name"] == "oracle.solve" and "residual" in s["attrs"]:
                residual[n] = max(residual.get(n, 0.0), s["attrs"]["residual"])
    problems = {rung[0].params["n"]: rung for rung in rungs}
    failed_total = 0
    for n in ladder:
        rung = problems.get(n, [])
        failed = failed_at.get(n)
        failed_total += len(failed or [])
        solved = bool(rung) and failed == []
        t = by_n.get(n, {})

        def measured(name: str, scale: float = 1.0) -> Optional[float]:
            return t[name] * scale if solved and name in t else None

        gflop = sum(2 * _transient(c) ** 3 / 3 for c in rung) / 1e9 if rung else None
        solve_s = measured("oracle.solve")
        put(f"oracle.kernel_build_s.n{n}", measured("oracle.kernel_build"), "s")
        put(f"oracle.solve_s.n{n}", solve_s, "s")
        put(f"oracle.solve_gflop.n{n}", gflop, "GFLOP", "computed")
        put(f"oracle.solve_gflops.n{n}", _div(gflop or 0.0, solve_s or 0.0), "GFLOP/s")
        put(f"oracle.kernel_mb.n{n}", 8 * (n + 1) ** 2 / 1e6 if rung else None, "MB",
            "computed")
        put(f"oracle.init_avg_ms.n{n}", measured("oracle.init_avg", 1e3), "ms")
        put(f"oracle.residual.n{n}", residual.get(n) if solved else None, "ratio")
        put(f"oracle.failures.n{n}", len(failed) if failed is not None else None,
            "count", "count")
    put("oracle.failed_problems", failed_total, "count", "count")


def _transient(cmd: Command) -> int:
    """Levels the dense solve eliminates: every level below the optimum."""
    p = cmd.params
    value = level_value(p["function"], p["n"], p["r"])
    return sum(1 for j in range(p["n"] + 1) if value(j) < 1)

"""Spans around the calls into each ``plateaulab`` layer, recorded from outside.

Each boundary is installed by replacing the attribute its caller looks
up: ``harness.run`` is what the sweep calls, ``ea.sample_uniform_subset``
is what the engine calls.  Calls made once per run or less record a span
(name, start, end, parent span, run id, repetition).  Calls made once per
proposal or per kernel entry would swamp memory as spans, so they are
*leaves*: their count and time are summed per key and charged to the
enclosing span.  Fitness evaluations are not wrapped at all; the engine
makes one per proposal and a wrapper would double an ell=1 step, so their
cost is estimated from direct calls (see ``estimate_fitness``).
"""

from __future__ import annotations

import importlib
import json
import random
import time
from typing import Callable

BLOCKED = ("BlockMajorityFitness", "NeutralityFitness")
# (boundary, module, attribute the caller looks up, kind)
BOUNDARIES = (
    ("harness.sweep", "plateaulab.harness", "sweep", "span"),
    ("harness.restart_experiment", "plateaulab.harness", "restart_experiment", "span"),
    ("harness.dilution_experiment", "plateaulab.harness", "dilution_experiment", "span"),
    ("harness.parse_init", "plateaulab.cli", "parse_init", "span"),
    ("harness.stats", "plateaulab.harness", "CellStats.from_runtimes", "span"),
    ("harness.csv", "plateaulab.harness", "write_csv", "span"),
    ("ea.run", "plateaulab.harness", "run", "span"),
    ("core.rng_setup", "plateaulab.ea", "RngStream", "stream"),
    ("core.init_sample", "plateaulab.ea", "sample_bitstring", "leaf"),
    ("core.subset_draw", "plateaulab.ea", "sample_uniform_subset", "leaf"),
    ("ea.restart_extract", "plateaulab.ea", "extract_restart_stats", "leaf"),
    ("oracle.kernel_build", "plateaulab.oracle", "rlsl_kernel", "span"),
    ("oracle.solve", "plateaulab.oracle", "kernel_hitting_times", "span"),
    ("oracle.init_avg", "plateaulab.oracle", "expected_under_init", "span"),
    ("oracle.ladder", "plateaulab.oracle", "majority_hitting_by_level", "span"),
    ("core.hypergeom_pmf", "plateaulab.oracle", "hypergeom_pmf", "leaf"),
)

perf = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "rep", "start", "end", "attrs", "inner_s")

    def __init__(self, id: int, parent: int, name: str, rep: int):
        self.id, self.parent, self.name, self.rep = id, parent, name, rep
        self.attrs: dict = {}
        self.inner_s = 0.0  # time of child spans and leaves directly inside
        self.start = perf()
        self.end = self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.inner_s


class Tracer:
    """In-memory span recorder; nothing is written until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.rep = 0
        self.spans: list[Span] = []
        self._stack: list[Span] = [Span(0, -1, "root", -1)]
        # (leaf name, key) -> [calls, seconds]
        self.leaves: dict[tuple[str, str], list] = {}
        # fitness class -> [call, "level" | "packed", n, evaluations]
        self.fitness: dict[str, list] = {}

    def open(self, name: str) -> Span:
        span = Span(len(self.spans) + 1, self._stack[-1].id, name, self.rep)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf()
        self._stack.pop()
        self._stack[-1].inner_s += span.end - span.start

    def wrap_span(self, name: str, fn: Callable, describe=None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                self.close(span)
            if describe is not None:
                t0 = perf()
                span.attrs.update(describe(self, args, result))
                # bookkeeping, not the enclosing layer's work
                self._stack[-1].inner_s += perf() - t0
            return result

        return traced

    def wrap_leaf(self, name: str, fn: Callable, key=None) -> Callable:
        leaves, stack = self.leaves, self._stack

        def traced(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                slot = (name, key(args) if key else "")
                acc = leaves.get(slot)
                if acc is None:
                    acc = leaves[slot] = [0, 0.0]
                acc[0] += 1
                acc[1] += dt
                stack[-1].inner_s += dt

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent, "name": s.name,
                    "rep": s.rep, "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")
            for (name, key), (calls, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({
                    "run": self.run_id, "leaf": name, "key": key,
                    "calls": calls, "seconds": secs,
                }) + "\n")


def _note_fitness(tracer: Tracer, cls: str, call: Callable, kind: str, n: int,
                  evaluations: int) -> None:
    slot = tracer.fitness.setdefault(cls, [call, kind, n, 0])
    slot[3] += evaluations


def _describe_run(tracer: Tracer, args, result) -> dict:
    cfg = args[0]
    fit = cfg.fitness
    cls = type(fit).__name__
    proposals = result.runtime or 0
    # the start is evaluated once, then one evaluation per proposal
    if cls in BLOCKED:
        _note_fitness(tracer, cls, fit.value_packed, "packed", fit.n, proposals + 1)
    else:
        _note_fitness(tracer, cls, fit.level_value, "level", fit.n, proposals + 1)
    if cfg.record_restart_stats or cfg.record_trajectory:
        key = "traced"
    elif cls in BLOCKED:
        key = "blocked"
    else:
        key = f"ell{cfg.mutation.ell}"
    return {"key": key, "ell": cfg.mutation.ell, "fitness": cls,
            "proposals": proposals, "censored": result.runtime is None}


def _describe_kernel(tracer: Tracer, args, result) -> dict:
    n, ell, by_level = args[0], args[1], args[2]
    cls = type(getattr(by_level, "__self__", by_level)).__name__
    _note_fitness(tracer, cls, by_level, "level", n, n + 1)
    return {"n": n, "ell": ell}


def _describe_solve(tracer: Tracer, args, result) -> dict:
    import numpy as np

    kernel = args[0]
    P = kernel.matrix
    trans = [s for s in range(P.shape[0]) if s not in kernel.absorbing]
    E = np.asarray(result)[trans]
    A = np.eye(len(trans)) - P[np.ix_(trans, trans)]
    residual = float(np.max(np.abs(A @ E - 1.0))) if trans else 0.0
    scale = 1.0 + (float(np.max(E)) if trans else 0.0)
    return {"n": P.shape[0] - 1, "m": len(trans), "residual": residual / scale}


def _describe_init(tracer: Tracer, args, result) -> dict:
    return {"n": args[1]}


DESCRIBE = {
    "ea.run": _describe_run,
    "oracle.kernel_build": _describe_kernel,
    "oracle.solve": _describe_solve,
    "oracle.init_avg": _describe_init,
}
LEAF_KEY = {"core.subset_draw": lambda args: f"ell{args[1]}"}


def install(tracer: Tracer) -> None:
    """Replace every boundary attribute with its traced wrapper.

    A missing attribute raises: a boundary the benchmark cannot see must
    fail the traced run, not report zero.
    """
    for name, module_name, attr, kind in BOUNDARIES:
        owner = importlib.import_module(module_name)
        *path, leaf_attr = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf_attr)
        if kind == "stream":
            wrapped = _timed_stream(tracer, name, original)
        elif kind == "leaf":
            wrapped = tracer.wrap_leaf(name, original, LEAF_KEY.get(name))
        else:
            wrapped = tracer.wrap_span(name, original, DESCRIBE.get(name))
        if path:  # a classmethod looked up on its class
            wrapped = staticmethod(wrapped)
        setattr(owner, leaf_attr, wrapped)


def _timed_stream(tracer: Tracer, name: str, stream_cls: type) -> type:
    timed_generator = tracer.wrap_leaf(name, stream_cls.generator)

    class TimedStream(stream_cls):
        def generator(self):
            return timed_generator(self)

    return TimedStream


def estimate_fitness(tracer: Tracer, calls: int = 4000) -> dict[str, tuple[float, int]]:
    """Per-call cost of each fitness the workload evaluated, from direct calls.

    Returns class name -> (seconds per call, evaluations the workload made).
    Level-symmetric objectives are timed through the level lookup the
    engine and the kernel build call, blocked ones through the packed
    evaluation on a random string of the workload's length.
    """
    rng = random.Random(0)
    out = {}
    for cls, (call, kind, n, evaluations) in tracer.fitness.items():
        if kind == "packed":
            words = _random_words(rng, n)
            args = [(words, sum(w.bit_count() for w in words))] * max(1, calls // 20)
        else:
            args = [(rng.randint(0, n),) for _ in range(calls)]
        t0 = perf()
        for a in args:
            call(*a)
        out[cls] = ((perf() - t0) / len(args), evaluations)
    return out


def _random_words(rng: random.Random, n: int) -> list[int]:
    words = [rng.getrandbits(64) for _ in range((n + 63) // 64)]
    if n % 64:
        words[-1] &= (1 << (n % 64)) - 1
    return words


def required(workload: str) -> tuple[str, ...]:
    """Boundaries the workload must cross; a traced run missing one fails."""
    common = ("cli.main",)
    if workload == "sweep-ell":
        return common + ("harness.sweep", "harness.stats", "harness.csv", "ea.run",
                         "core.rng_setup", "core.init_sample", "core.subset_draw")
    if workload == "ell1-batch":
        return common + ("harness.sweep", "harness.restart_experiment",
                         "harness.dilution_experiment", "harness.stats", "harness.csv",
                         "ea.run", "core.rng_setup", "core.init_sample",
                         "ea.restart_extract", "oracle.init_avg", "oracle.ladder")
    return common + ("harness.parse_init", "oracle.kernel_build", "core.hypergeom_pmf",
                     "oracle.solve", "oracle.init_avg")


def summary(tracer: Tracer) -> dict:
    """Everything the benchmark needs from a worker's spans, as plain JSON."""
    return {
        "spans": [
            {"name": s.name, "rep": s.rep, "dur": s.end - s.start, "self": s.self_s,
             "attrs": s.attrs}
            for s in tracer.spans
        ],
        "leaves": [[name, key, calls, secs]
                   for (name, key), (calls, secs) in tracer.leaves.items()],
        "fitness": estimate_fitness(tracer),
        "crossed": sorted({s.name for s in tracer.spans} | {n for n, _ in tracer.leaves}),
    }

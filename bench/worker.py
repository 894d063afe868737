"""One process of the benchmark: runs a group of repetitions through ``cli.main``.

    python3 bench/worker.py SPEC.json RESULT.json
    python3 bench/worker.py --setup WORKLOAD SEED SRC

The first form is the measured process.  The second is a set-up probe: a
fresh interpreter that imports the package and builds the workload's
command lines, then exits; the benchmark times it from the outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


CAL_ITERS = 900


def calibrator():
    """A fixed loop of small numpy draws and dict updates, like the engine's.

    The host's speed drifts by tens of percent over seconds; timing this
    loop between commands lets each command's time be expressed in units
    of it, which cancels most of that drift.
    """
    import numpy as np

    g = np.random.default_rng(0)

    def calibrate() -> float:
        t = time.perf_counter()
        for _ in range(CAL_ITERS):
            counts: dict = {}
            for x in g.integers(0, 100, size=16).tolist():
                counts[x] = counts.get(x, 0) + 1
        return time.perf_counter() - t

    return calibrate


def run_group(spec: dict) -> dict:
    t0 = time.perf_counter()
    from plateaulab import cli

    import_s = time.perf_counter() - t0
    main = cli.main
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
        main = tracer.wrap_span("cli.main", cli.main)
    calibrate = calibrator()
    out_path = spec["out"]
    reps = spec["reps"]
    passes = []
    cal = calibrate()
    start = time.perf_counter()
    while len(passes) < spec["max_passes"] and (
        len(passes) < spec["min_passes"] or time.perf_counter() - start < spec["budget_s"]
    ):
        if tracer is not None:
            tracer.rep = len(passes)
        cmds = []
        for argv in reps[len(passes) % len(reps)]:
            if os.path.exists(out_path):
                os.remove(out_path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                t = time.perf_counter()
                try:
                    rc = main(argv + ["--out", out_path])
                except Exception:  # a crash is a failed operation, not a dead benchmark
                    rc = -1
                    traceback.print_exc()
                wall = time.perf_counter() - t
            text = None
            if rc == 0:
                with open(out_path, encoding="utf-8") as fh:
                    text = fh.read()
            after = calibrate()
            cmds.append({"rc": rc, "wall_s": wall, "cal_s": (cal + after) / 2, "out": text,
                         "err": err.getvalue()[-2000:]})
            cal = after
        passes.append({
            "wall_s": sum(c["wall_s"] for c in cmds),
            "norm": sum(c["wall_s"] / c["cal_s"] for c in cmds),
            "cmds": cmds,
        })
    result = {
        "import_s": import_s,
        "passes": passes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracing.summary(tracer)
        tracer.write(spec["trace_path"])
    return result


def setup_probe(workload: str, seed: int, src: str) -> None:
    sys.path.insert(0, src)
    import plateaulab.cli  # noqa: F401
    import workloads

    workloads.plan(workload, seed, workloads.FULL)


if __name__ == "__main__":
    if sys.argv[1] == "--setup":
        setup_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4])
        sys.exit(0)
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    result = run_group(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)

#!/usr/bin/env python3
"""Desk-scale sweep of the run time against the flip count.

Sweeps RLS_ell on the one-sided majority objective with r = floor(sqrt(n))
under uniform initialization and writes a CSV plus a log-log SVG chart of
mean and median against ell.
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from plateaulab.harness import ExperimentSpec, sweep


def ell_grid(n: int) -> tuple[int, ...]:
    values = {1, 2, 3, 4, max(1, int(math.log(n))), math.isqrt(n)}
    values.update(max(1, a * n // 12) for a in (3, 6, 7, 8, 9, 10))
    return tuple(sorted(v for v in values if v <= n))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--runs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, f"ell_sweep_n{args.n}.csv")
    svg_path = os.path.join(args.out_dir, f"ell_sweep_n{args.n}.svg")
    spec = ExperimentSpec(
        function="majority",
        n_values=(args.n,),
        ell_values=ell_grid(args.n),
        r="sqrt",
        runs=args.runs,
        master_seed=args.seed,
        init="uniform",
        csv_path=csv_path,
        svg_path=svg_path,
        workers=args.workers,
    )
    rows = sweep(spec)
    best = min(rows, key=lambda row: row.stats.mean)
    print(f"wrote {csv_path} and {svg_path}")
    print(f"best mean {best.stats.mean:.1f} at ell={best.ell} (of {len(rows)} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

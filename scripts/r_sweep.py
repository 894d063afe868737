#!/usr/bin/env python3
"""Desk-scale comparison of empirical run times with the closed-form bound.

For a fixed n, runs RLS_1 and RLS_{2n/3} on the one-sided majority
objective over a doubling grid of r under uniform initialization, then
writes a CSV with the empirical means next to the uniform-init bound and
an SVG chart on a log y-axis.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from plateaulab import theory
from plateaulab.harness import (
    ExperimentSpec,
    PlotSpec,
    csv_lines,
    emit_svg,
    sweep,
    write_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--runs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    n = args.n
    r_values = [r for r in (1, 2, 4, 8, 12, 16) if r <= n // 2]
    big_ell = max(1, 2 * n // 3)
    os.makedirs(args.out_dir, exist_ok=True)

    header = ["r", "mean_single_flip", "mean_big_flip", "bound"]
    table = []
    for r in r_values:
        single, big = sweep(
            ExperimentSpec(
                function="majority",
                n_values=(n,),
                ell_values=(1, big_ell),
                r=r,
                runs=args.runs,
                master_seed=args.seed,
                init="uniform",
                workers=args.workers,
            )
        )
        table.append(
            [float(r), single.stats.mean, big.stats.mean, theory.majority_bound(n, r)]
        )
        print(
            f"r={r:3d}  mean(ell=1)={single.stats.mean:10.1f}  "
            f"mean(ell={big_ell})={big.stats.mean:8.1f}  "
            f"bound={table[-1][3]:.3g}"
        )

    csv_path = os.path.join(args.out_dir, f"r_sweep_n{n}.csv")
    write_csv(csv_lines(header, table), csv_path)
    svg_path = os.path.join(args.out_dir, f"r_sweep_n{n}.svg")
    emit_svg(
        header,
        table,
        PlotSpec(
            x="r",
            y=("mean_single_flip", "mean_big_flip", "bound"),
            logy=True,
            title=f"run time vs majority surplus, n={n}",
        ),
        svg_path,
    )
    print(f"wrote {csv_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

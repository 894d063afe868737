#!/usr/bin/env python3
"""Log single-run trajectories for a few flip counts.

Each run starts from a uniformly random non-optimal string on the
one-sided majority objective with r = floor(sqrt(n)) and records the
ones count per iteration until the first optimum.  Writes one CSV per
flip count and one combined SVG.
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from plateaulab.harness import PlotSpec, emit_svg, trajectory_capture, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    n = args.n
    r = math.isqrt(n)
    ells = [1, max(1, int(math.log(n))), n // 2]
    os.makedirs(args.out_dir, exist_ok=True)

    table = []
    groups = []
    for ell in ells:
        result = trajectory_capture(n, r, ell, master_seed=args.seed)
        traj = result.trajectory
        status = "censored" if result.censored else f"hit at t={result.runtime}"
        print(f"ell={ell:5d}: start {int(traj[0])} ones, {status}")
        csv_path = os.path.join(args.out_dir, f"trajectory_n{n}_ell{ell}.csv")
        write_csv(["t,ones", *(f"{t},{v}" for t, v in enumerate(traj.tolist()))], csv_path)
        stride = max(1, len(traj) // 2000)
        for t in range(0, len(traj), stride):
            table.append([float(t), float(traj[t])])
            groups.append(ell)
    svg_path = os.path.join(args.out_dir, f"trajectories_n{n}.svg")
    emit_svg(
        ["t", "ones"],
        table,
        PlotSpec(x="t", y=("ones",), logx=True, title=f"best-so-far ones count, n={n}"),
        svg_path,
        series_labels=[f"ell={ell}" for ell in ells],
        groups=groups,
    )
    print(f"wrote {svg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

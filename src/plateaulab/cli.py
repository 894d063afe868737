"""Command-line interface: every lab capability as a reproducible subcommand."""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

import numpy as np

from . import harness, oracle, theory
from .core import Uniform
from .ea import DEFAULT_CAP, RlsMutation, RunConfig
from .fitness import FUNCTION_NAMES, make_fitness
from .harness import ExperimentSpec, PlotSpec, format_value, parse_init, table_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _surplus(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text


def _emit(lines: Sequence[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _warn_censored(what: str, censored: int, runs: int) -> None:
    if censored:
        print(
            f"warning: {what}: {censored} of {runs} runs censored by the iteration "
            "cap; the statistics exclude them",
            file=sys.stderr,
        )


def _cmd_bounds(args) -> int:
    if not args.n or not args.r:
        raise ValueError("n and r lists must be non-empty")
    lines = ["n,r,lambda,delta,plateau_bound_center,majority_bound"]
    for n in args.n:
        for r in args.r:
            b = theory.BoundSet.for_params(n, r)
            lines.append(
                ",".join(
                    format_value(v)
                    for v in (n, r, b.lam, b.delta, b.plateau_center, b.majority_uniform)
                )
            )
    _emit(lines, args.out)
    return EXIT_OK


def _exact_levels(function: str, n: int, r: int, ell: int) -> np.ndarray:
    oracle._check_flip(n, ell)
    if function == "plateau" and r == 0:
        return np.zeros(n + 1)  # constant function: every start is optimal
    if function == "majority":
        if ell == 1:
            return oracle.majority_hitting_by_level(n, r)
        fit = make_fitness("majority", n, r=r)
    elif function == "plateau":
        if ell == 1:
            return oracle.plateau_hitting_by_level(n, r)
        fit = make_fitness("plateau", n, r=r)
    else:
        raise ValueError(f"exact expectations support majority and plateau, not {function!r}")
    kernel = oracle.rlsl_kernel(n, ell, fit.level_value)
    return oracle.kernel_hitting_times(kernel)


def _cmd_exact(args) -> int:
    levels = _exact_levels(args.function, args.n, args.r, args.ell)
    fit = make_fitness(args.function, args.n, r=args.r)
    init = parse_init(args.init, fit)
    expected = oracle.expected_under_init(levels, args.n, init)
    uniform = (
        expected
        if isinstance(init, Uniform)
        else oracle.expected_under_init(levels, args.n, Uniform())
    )
    lines = [
        "n,r,ell,init,expected,expected_uniform",
        ",".join(
            format_value(v)
            for v in (args.n, args.r, args.ell, args.init, expected, uniform)
        ),
    ]
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_drift_check(args) -> int:
    rows = oracle.drift_check(args.n, args.r)
    _emit(table_lines(rows), args.out)
    if not oracle.drift_check_ok(rows):
        print(
            f"drift floor violated beyond {oracle.DRIFT_TOL:g} relative tolerance",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_compliance(args) -> int:
    ok, violation = oracle.compliance_check(args.n, args.ell)
    detail = "none" if violation is None else "low={};high={};threshold={}".format(*violation)
    _emit(
        ["n,ell,compliant,violation", f"{args.n},{args.ell},{str(ok).lower()},{detail}"],
        args.out,
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    fit = make_fitness(args.function, args.n, r=args.r, k=args.k)
    init = parse_init(args.init, fit)
    config = RunConfig(fit, RlsMutation(args.ell), init, args.seed, max_iters=args.cap)
    lines = ["run,runtime,init_ones,censored"]
    for idx, result in enumerate(harness.run_cell(config, args.runs)):
        runtime = "" if result.censored else str(result.runtime)
        lines.append(
            f"{idx},{runtime},{result.init_ones},{str(result.censored).lower()}"
        )
    _emit(lines, args.out)
    return EXIT_OK


_CONFIG_KEYS = (
    "function", "n", "ell", "r", "k", "runs", "seed", "cap", "init", "out", "svg", "workers"
)


def _merge_config(args) -> ExperimentSpec:
    conf = harness.load_config(args.config) if args.config else {}
    unknown = [key for key in conf if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(
            f"unknown config key {', '.join(unknown)}; "
            f"accepted keys: {', '.join(_CONFIG_KEYS)}"
        )
    default = ExperimentSpec()

    def pick(flag_value, key: str, default_value, convert=int):
        if flag_value is not None:
            return flag_value
        if key in conf:
            try:
                return convert(conf[key])
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"config key {key}: {exc}") from exc
        return default_value

    return ExperimentSpec(
        function=pick(args.function, "function", default.function, str),
        n_values=tuple(pick(args.n, "n", default.n_values, _int_list)),
        ell_values=tuple(pick(args.ell, "ell", default.ell_values, _int_list)),
        r=pick(args.r, "r", default.r, _surplus),
        k=pick(args.k, "k", default.k),
        runs=pick(args.runs, "runs", default.runs),
        master_seed=pick(args.seed, "seed", default.master_seed),
        cap=pick(args.cap, "cap", default.cap),
        init=pick(args.init, "init", default.init, str),
        csv_path=pick(args.out, "out", default.csv_path, str),
        svg_path=pick(args.svg, "svg", default.svg_path, str),
        workers=pick(args.workers, "workers", default.workers),
    )


def _cmd_sweep(args) -> int:
    spec = _merge_config(args)
    rows = harness.sweep(spec)
    if not spec.csv_path:
        _emit(table_lines(rows), None)
    for row in rows:
        _warn_censored(
            f"cell n={row.n} r={row.r} ell={row.ell}", row.stats.censored, row.stats.runs
        )
    return EXIT_OK


def _cmd_restarts(args) -> int:
    report = harness.restart_experiment(
        args.n, args.r, args.runs, args.seed, cap=args.cap, workers=args.workers
    )
    _emit(table_lines([report]), args.out)
    _warn_censored(f"restarts n={args.n} r={args.r}", report.censored, report.runs)
    return EXIT_OK


def _cmd_wmodel(args) -> int:
    report = harness.dilution_experiment(
        args.blocks, args.k, args.runs, args.seed, cap=args.cap, workers=args.workers
    )
    _emit(table_lines([report]), args.out)
    _warn_censored(f"wmodel blocks={args.blocks} k={args.k}", report.censored, report.runs)
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    result = harness.trajectory_capture(args.n, args.r, args.ell, args.seed, cap=args.cap)
    lines = ["t,ones"]
    assert result.trajectory is not None
    lines.extend(f"{t},{v}" for t, v in enumerate(result.trajectory.tolist()))
    _emit(lines, args.out)
    if result.censored:
        print("run censored by the iteration cap", file=sys.stderr)
    return EXIT_OK


def _cmd_plot(args) -> int:
    header, rows = harness.read_table(getattr(args, "in"))
    spec = PlotSpec(
        x=args.x,
        y=tuple(args.y.split(",")),
        logx=args.logx,
        logy=args.logy,
        title=args.title,
    )
    harness.emit_svg(header, rows, spec, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plateaulab",
        description="Run-time lab for local search on majority plateau functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the search and print per-run results")
    p.add_argument("--function", choices=FUNCTION_NAMES, default="majority")
    p.add_argument("--n", type=int, required=True, help="problem size (blocks for onemax-neutral)")
    p.add_argument("--r", type=int, default=0, help="majority surplus over n/2")
    p.add_argument("--k", type=int, default=1, help="block width for onemax-neutral")
    p.add_argument("--ell", type=int, default=1, help="bits flipped per iteration")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--init", default="uniform", help="uniform | uniform-nonopt | ones=J | point=BITS")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a seeded (n, ell) parameter sweep")
    p.add_argument("--function", choices=FUNCTION_NAMES)
    p.add_argument("--n", type=_int_list, help="comma-separated problem sizes")
    p.add_argument("--ell", type=_int_list, help="comma-separated flip counts")
    p.add_argument("--r", type=_surplus, help="majority surplus, or 'sqrt' for floor(sqrt(n))")
    p.add_argument("--k", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--init")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--svg", help="SVG chart output path")
    p.add_argument("--workers", type=int, help="parallel worker processes")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("exact", help="exact expected run time from the level chain")
    p.add_argument("--function", choices=("majority", "plateau"), default="majority")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument(
        "--init", default="uniform", help="uniform | uniform-nonopt | ones=J | point=BITS"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", help="closed-form bound table as CSV")
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated sizes")
    p.add_argument("--r", type=_int_list, required=True, help="comma-separated surpluses")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "drift-check", help="verify the per-level drift floors; exit 3 on violation"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_drift_check)

    p = sub.add_parser(
        "compliance", help="exhaustive ones-count monotonicity check of ell-bit flips"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compliance)

    p = sub.add_parser(
        "restarts", help="measure first-hit probability and retry counts"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_restarts)

    p = sub.add_parser(
        "wmodel", help="single-block dilution run against the exact block time"
    )
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="block width (even)")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_wmodel)

    p = sub.add_parser(
        "trajectory", help="log the ones count per iteration of one run"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("plot", help="render a CSV table as an SVG chart")
    p.add_argument("--in", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--x", default="ell")
    p.add_argument("--y", default="mean", help="comma-separated y columns")
    p.add_argument("--logx", action="store_true")
    p.add_argument("--logy", action="store_true")
    p.add_argument("--title", default="")
    p.set_defaults(func=_cmd_plot)

    return parser


# parsing leaves the parser unchanged, so every call in a process shares one
_shared_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Seeded experiment orchestration: sweeps, restart and dilution runs, CSV/SVG."""

from __future__ import annotations

import configparser
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence, get_type_hints
from xml.sax.saxutils import escape

import numpy as np

from . import oracle, theory
from .core import FixedOnes, InitDistribution, Point, Uniform, UniformNonOptimal
from .ea import DEFAULT_CAP, RlsMutation, RunConfig, RunResult, run
from .fitness import (
    BlockMajorityFitness,
    FitnessFunction,
    MajorityFitness,
    make_fitness,
)


@dataclass(frozen=True)
class CellStats:
    """Summary of the uncensored run times of one sweep cell."""

    runs: int
    mean: float
    median: float
    p25: float
    p75: float
    stderr: float
    censored: int

    @classmethod
    def from_runtimes(cls, runtimes: Sequence[Optional[int]]) -> "CellStats":
        total = len(runtimes)
        finite = np.asarray([t for t in runtimes if t is not None], dtype=float)
        censored = total - len(finite)
        if len(finite) == 0:
            nan = math.nan
            return cls(total, nan, nan, nan, nan, nan, censored)
        stderr = (
            float(finite.std(ddof=1) / math.sqrt(len(finite)))
            if len(finite) > 1
            else 0.0
        )
        return cls(
            runs=total,
            mean=float(finite.mean()),
            median=float(np.median(finite)),
            p25=float(np.percentile(finite, 25)),
            p75=float(np.percentile(finite, 75)),
            stderr=stderr,
            censored=censored,
        )


@dataclass(frozen=True)
class CellResult:
    n: int
    r: int
    ell: int
    stats: CellStats


@dataclass(frozen=True)
class ExperimentSpec:
    """Flat description of a sweep; every field has a config-file key.

    ``r`` is the fixed majority surplus, or "sqrt" to derive it as
    floor(sqrt(n)) per problem size.  For onemax-neutral, ``n`` counts
    blocks and ``k`` is the block width.
    """

    function: str = "majority"
    n_values: tuple[int, ...] = (100,)
    ell_values: tuple[int, ...] = (1,)
    r: int | str = 0
    k: int = 1
    runs: int = 100
    master_seed: int = 1
    cap: int = DEFAULT_CAP
    init: str = "uniform"
    csv_path: Optional[str] = None
    svg_path: Optional[str] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.r, str) and self.r != "sqrt":
            raise ValueError(f"r must be an integer or 'sqrt', got {self.r!r}")
        if not self.n_values or not self.ell_values:
            raise ValueError("n and ell lists must be non-empty")

    def resolve_r(self, n: int) -> int:
        return math.isqrt(n) if self.r == "sqrt" else self.r


def parse_init(text: str, fitness: FitnessFunction) -> InitDistribution:
    """Parse an init spec: uniform | uniform-nonopt | ones=J | point=BITS."""
    if text == "uniform":
        return Uniform()
    if text == "uniform-nonopt":
        return UniformNonOptimal(fitness)
    if text.startswith("ones="):
        return FixedOnes(int(text[5:]))
    if text.startswith("point="):
        return Point(text[6:])
    raise ValueError(
        f"unknown init {text!r}; expected uniform, uniform-nonopt, ones=J or point=BITS"
    )


@dataclass(frozen=True)
class RunTask:
    """A block of seeded runs of one cell; picklable for process pools.

    Run ``i`` of ``runs`` is ``run(config, i)``.
    """

    config: RunConfig
    runs: range


def _run_task(task: RunTask) -> list[RunResult]:
    return [run(task.config, i) for i in task.runs]


def check_runs_finish(config: RunConfig) -> None:
    """Reject a cell whose runs can get stuck for good under the default cap.

    A level-symmetric run that reaches a level with no accepted path to an
    optimum (``oracle.trapped_level``) would spin until the 10^9-proposal
    default cap; any other cap censors such runs as usual.  Blocked
    objectives are not checked.  O(n ell): call it once per cell, not per
    run.
    """
    fit = config.fitness
    if config.max_iters != DEFAULT_CAP or not fit.level_symmetric:
        return
    init = config.init
    if isinstance(init, FixedOnes):
        starts = [init.ones]
    elif isinstance(init, Point):
        starts = [init.bits.count("1")]
    else:
        starts = range(fit.n + 1)
    ell = config.mutation.ell
    level = oracle.trapped_level(fit.n, ell, fit.level_value, starts)
    if level is not None:
        raise ValueError(
            f"runs can never finish: {fit!r} with ell={ell} has no accepted path "
            f"to an optimum from ones count {level}, which the initialization "
            "can reach; pass --cap to censor such runs instead"
        )


def _tasks(config: RunConfig, first: int, runs: int, workers: int) -> list[RunTask]:
    """Split run indices first..first+runs-1 into about 4 blocks per worker."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    check_runs_finish(config)
    size = math.ceil(runs / (workers * 4))
    stop = first + runs
    return [
        RunTask(config, range(start, min(start + size, stop)))
        for start in range(first, stop, size)
    ]


def _execute(tasks: list[RunTask], workers: int) -> list[RunResult]:
    """Results of every task's runs, in task order."""
    if workers <= 1 or len(tasks) <= 1:
        blocks = [_run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_task, tasks))
    return [res for block in blocks for res in block]


def sweep(spec: ExperimentSpec) -> list[CellResult]:
    """Run every (n, ell) cell of the spec and summarize it.

    Run seeds are (master_seed, cell_index * runs + run_index), so the
    output is identical regardless of worker count or scheduling.  Writes
    the CSV/SVG outputs when paths are set.
    """
    cells = [
        (n, spec.resolve_r(n), ell) for n in spec.n_values for ell in spec.ell_values
    ]
    tasks = []
    for cell_index, (n, r, ell) in enumerate(cells):
        fit = make_fitness(spec.function, n, r=r, k=spec.k)
        config = RunConfig(
            fit,
            RlsMutation(ell),
            parse_init(spec.init, fit),
            spec.master_seed,
            max_iters=spec.cap,
        )
        tasks += _tasks(config, cell_index * spec.runs, spec.runs, spec.workers)
    results = _execute(tasks, spec.workers)
    rows = []
    for cell_index, (n, r, ell) in enumerate(cells):
        cell = results[cell_index * spec.runs : (cell_index + 1) * spec.runs]
        stats = CellStats.from_runtimes([res.runtime for res in cell])
        rows.append(CellResult(n, r, ell, stats))
    if spec.csv_path:
        write_csv(rows, spec.csv_path)
    if spec.svg_path:
        emit_sweep_svg(rows, spec.svg_path)
    return rows


@dataclass(frozen=True)
class RestartReport:
    """Measured restart decomposition on the one-sided objective."""

    n: int
    r: int
    runs: int
    censored: int
    p0_hat: float
    p0_stderr: float
    retried_runs: int
    mean_retries: Optional[float]
    retries_stderr: Optional[float]


def restart_experiment(
    n: int,
    r: int,
    runs: int,
    master_seed: int,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> RestartReport:
    """Estimate the first-hit success probability and the retry count.

    p0_hat is the fraction of runs whose first plateau optimum already had
    a majority of ones; mean_retries averages the retry count over runs
    that needed at least one retry (None when no run did).
    """
    config = RunConfig(
        MajorityFitness(n, r),
        RlsMutation(1),
        Uniform(),
        master_seed,
        max_iters=cap,
        record_restart_stats=True,
    )
    results = _execute(_tasks(config, 0, runs, workers), workers)
    complete = [res.restart for res in results if not res.restart.partial]
    if not complete:
        raise RuntimeError("every run was censored; raise the cap")
    first = CellStats.from_runtimes([int(rs.first_hit_majority) for rs in complete])
    retried = CellStats.from_runtimes([rs.retries for rs in complete if rs.retried])
    return RestartReport(
        n=n,
        r=r,
        runs=runs,
        censored=len(results) - len(complete),
        p0_hat=first.mean,
        p0_stderr=first.stderr,
        retried_runs=retried.runs,
        mean_retries=retried.mean if retried.runs else None,
        retries_stderr=retried.stderr if retried.runs else None,
    )


@dataclass(frozen=True)
class DilutionReport:
    """Single-block run times against blocks * exact one-block expectation."""

    blocks: int
    k: int
    runs: int
    censored: int
    mean_runtime: float
    stderr: float
    exact_block: float
    ratio: float
    ratio_stderr: float
    block_bound: float


def dilution_experiment(
    blocks: int,
    k: int,
    runs: int,
    master_seed: int,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> DilutionReport:
    """Measure how a width-k block vote dilutes inside a blocks*k genotype.

    Each mutation hits the scored block with chance 1/blocks, so the mean
    run time should equal blocks times the exact single-block expectation;
    the report carries the ratio of the two, which should be 1 within
    noise, and the closed-form ceiling 6 + k/2 for the block expectation.
    """
    bound = theory.block_bound(k)
    config = RunConfig(
        BlockMajorityFitness(1, blocks, k),
        RlsMutation(1),
        Uniform(),
        master_seed,
        max_iters=cap,
    )
    results = _execute(_tasks(config, 0, runs, workers), workers)
    stats = CellStats.from_runtimes([res.runtime for res in results])
    if stats.censored == stats.runs:
        raise RuntimeError("every run was censored; raise the cap")
    exact = oracle.expected_under_init(
        oracle.majority_hitting_by_level(k, 1), k, Uniform()
    )
    scale = blocks * exact
    return DilutionReport(
        blocks=blocks,
        k=k,
        runs=runs,
        censored=stats.censored,
        mean_runtime=stats.mean,
        stderr=stats.stderr,
        exact_block=exact,
        ratio=stats.mean / scale,
        ratio_stderr=stats.stderr / scale,
        block_bound=bound,
    )


def trajectory_capture(
    n: int, r: int, ell: int, master_seed: int, cap: int = DEFAULT_CAP
) -> RunResult:
    """One instrumented run on the one-sided objective from a non-optimal uniform start."""
    fit = MajorityFitness(n, r)
    cfg = RunConfig(
        fit,
        RlsMutation(ell),
        UniformNonOptimal(fit),
        master_seed,
        max_iters=cap,
        record_trajectory=True,
    )
    check_runs_finish(cfg)
    return run(cfg, 0)


def format_value(v) -> str:
    """CSV cell text: None as nan, floats at full precision via repr."""
    if v is None:
        return "nan"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _header(cls) -> list[str]:
    """Column names of a record class: its field names, nested records inlined."""
    hints = get_type_hints(cls)
    names = []
    for f in fields(cls):
        kind = hints[f.name]
        names.extend(_header(kind) if is_dataclass(kind) else [f.name])
    return names


def _values(record) -> list:
    """Field values of a record in column order, nested records inlined."""
    values = []
    for f in fields(record):
        v = getattr(record, f.name)
        values.extend(_values(v) if is_dataclass(v) else [v])
    return values


def table_lines(records: Sequence) -> list[str]:
    """CSV lines of same-class records: the header is their field names."""
    if not records:
        raise ValueError("refusing to write an empty table")
    lines = [",".join(_header(type(records[0])))]
    lines.extend(",".join(format_value(v) for v in _values(rec)) for rec in records)
    return lines


def write_csv(rows: Sequence[CellResult], path: str) -> None:
    """Write sweep rows under their field-name header; floats keep full precision."""
    lines = table_lines(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str) -> tuple[list[str], list[list[float]]]:
    """Read any numeric CSV as (header, rows of floats) for plotting."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) < 2:
        raise ValueError("table must have a header and at least one row")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


@dataclass(frozen=True)
class PlotSpec:
    """Chart description for emit_svg."""

    x: str = "ell"
    y: tuple[str, ...] = ("mean", "median")
    logx: bool = False
    logy: bool = False
    title: str = ""


_WIDTH = 640
_HEIGHT = 440
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN = 56.0


def _axis_ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e, hi_e = math.floor(lo), math.ceil(hi)
        if hi_e == lo_e:
            hi_e += 1
        return [float(e) for e in range(lo_e, hi_e + 1)]
    if hi == lo:
        return [lo]
    step = (hi - lo) / 4.0
    return [lo + i * step for i in range(5)]


def _tick_label(value: float, log: bool) -> str:
    return f"1e{int(value)}" if log else f"{value:.6g}"


def emit_svg(
    header: Sequence[str],
    rows: Sequence[Sequence[float]],
    spec: PlotSpec,
    path: str,
    series_labels: Optional[Sequence[str]] = None,
    groups: Optional[Sequence[int]] = None,
) -> None:
    """Render one line/scatter chart of the table columns as standalone SVG.

    Columns named in ``spec.y`` are drawn against ``spec.x``; ``groups``
    optionally splits rows into separate series (one polyline per group
    and y column).  Log axes drop nonpositive points.
    """
    if not rows:
        raise ValueError("refusing to plot an empty table")
    cols = {name: i for i, name in enumerate(header)}
    if spec.x not in cols:
        raise ValueError(f"x column {spec.x!r} not in header")
    for y in spec.y:
        if y not in cols:
            raise ValueError(f"y column {y!r} not in header")
    group_ids = list(groups) if groups is not None else [0] * len(rows)
    series: list[tuple[str, list[tuple[float, float]]]] = []
    for gi, gid in enumerate(sorted(set(group_ids))):
        chosen = [row for row, g in zip(rows, group_ids) if g == gid]
        for y in spec.y:
            pts = []
            for row in chosen:
                xv, yv = row[cols[spec.x]], row[cols[y]]
                if math.isnan(xv) or math.isnan(yv):
                    continue
                if spec.logx and xv <= 0 or spec.logy and yv <= 0:
                    continue
                pts.append(
                    (
                        math.log10(xv) if spec.logx else xv,
                        math.log10(yv) if spec.logy else yv,
                    )
                )
            if pts:
                label = y if groups is None else f"{y}[{gid}]"
                if series_labels is not None and len(series) < len(series_labels):
                    label = series_labels[len(series)]
                series.append((label, sorted(pts)))
    if not series:
        raise ValueError("nothing to plot after filtering")
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0
    w, h = float(_WIDTH), float(_HEIGHT)

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (w - 2 * _MARGIN)

    def py(y: float) -> float:
        return h - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (h - 2 * _MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{h - _MARGIN}" x2="{w - _MARGIN}" '
        f'y2="{h - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{h - _MARGIN}" stroke="black"/>',
    ]
    for tick in _axis_ticks(x_lo, x_hi, spec.logx):
        if not x_lo <= tick <= x_hi:
            continue
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{h - _MARGIN}" x2="{x:.2f}" '
            f'y2="{h - _MARGIN + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{h - _MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{escape(_tick_label(tick, spec.logx))}</text>'
        )
    for tick in _axis_ticks(y_lo, y_hi, spec.logy):
        if not y_lo <= tick <= y_hi:
            continue
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN - 5}" y1="{y:.2f}" x2="{_MARGIN}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{escape(_tick_label(tick, spec.logy))}</text>'
        )
    for si, (label, pts) in enumerate(series):
        color = _SERIES_COLORS[si % len(_SERIES_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        if len(pts) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{w - _MARGIN + 4:.2f}" y="{_MARGIN + 14 * si:.2f}" '
            f'font-size="11" fill="{color}">{escape(label)}</text>'
        )
    if spec.title:
        parts.append(
            f'<text x="{w / 2:.2f}" y="20" font-size="13" '
            f'text-anchor="middle">{escape(spec.title)}</text>'
        )
    xlabel = f"log10 {spec.x}" if spec.logx else spec.x
    parts.append(
        f'<text x="{w / 2:.2f}" y="{h - 12:.2f}" font-size="12" '
        f'text-anchor="middle">{escape(xlabel)}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_sweep_svg(rows: Sequence[CellResult], path: str) -> None:
    """Mean and median run time against ell, one series group per n, log-log."""
    table = [[float(v) for v in _values(row)] for row in rows]
    groups = [row.n for row in rows]
    multi = len(set(groups)) > 1
    spec = PlotSpec(
        x="ell",
        y=("mean", "median"),
        logx=True,
        logy=True,
        title="run time vs flip count",
    )
    emit_svg(_header(CellResult), table, spec, path, groups=groups if multi else None)


def load_config(path: str) -> dict[str, str]:
    """Read a flat key=value config file; section names are cosmetic."""
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"cannot parse config file {path}: {exc}") from exc
    merged: dict[str, str] = {}
    for section in parser.sections():
        merged.update(dict(parser.items(section)))
    return merged

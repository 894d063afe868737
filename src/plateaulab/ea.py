"""Elitist single-individual search with exact-cardinality bit-flip mutation."""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import InitDistribution, RngStream, sample_bitstring, sample_uniform_subset
from .fitness import BlockedFitness, FitnessFunction, MajorityFitness

DEFAULT_CAP = 10**9
# ell=1 proposal batches: the first has this many indices, each later one
# twice as many, up to _BATCH
_BATCH_FIRST = 64
_BATCH = 4096
# ell>1 proposal batches: the first has this many rows, each later one
# twice as many, capped so that a batch holds at most this many indices
_SUBSET_ROWS_FIRST = 16
_SUBSET_BUDGET = 8192


@dataclass(frozen=True)
class RlsMutation:
    """Flip a uniformly chosen set of exactly ``ell`` distinct positions."""

    ell: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError(f"ell must be at least 1, got {self.ell}")


@dataclass(frozen=True)
class RunConfig:
    """One cell: everything its runs share, checked once.

    A run is this config plus its run index (``run(config, run_index)``);
    equal pairs replay bit-identically.
    """

    fitness: FitnessFunction
    mutation: RlsMutation
    init: InitDistribution
    master_seed: int
    _: KW_ONLY
    max_iters: int = DEFAULT_CAP
    record_trajectory: bool = False
    record_restart_stats: bool = False

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.fitness.level_symmetric or isinstance(self.fitness, BlockedFitness)):
            raise ValueError(
                f"{type(self.fitness).__name__} is neither a function of the ones "
                "count nor a blocked objective; no engine can run it"
            )
        if self.mutation.ell > self.fitness.n:
            raise ValueError(
                f"ell={self.mutation.ell} exceeds the fitness arity {self.fitness.n}"
            )
        if self.record_restart_stats and not isinstance(self.fitness, MajorityFitness):
            raise ValueError(
                "restart statistics are defined for the one-sided majority objective"
            )


@dataclass(frozen=True)
class RestartStats:
    """Interleaved crossing/return bookkeeping of one run on the one-sided objective.

    ``plateau_hits`` records, per phase, the first time the incumbent is a
    two-sided-plateau optimum; ``half_returns`` records, per failed phase,
    the first later time with at least n/2 ones.  ``retries`` counts the
    plateau hits that preceded the actual majority hit; on a censored run
    the counts are lower bounds and ``partial`` is set.
    """

    plateau_hits: tuple[int, ...]
    half_returns: tuple[int, ...]
    retries: int
    retried: bool
    first_hit_majority: bool
    partial: bool


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one run: hitting time (or censoring) plus instrumentation."""

    runtime: Optional[int]
    init_ones: int
    trajectory: Optional[np.ndarray] = None
    restart: Optional[RestartStats] = None

    @property
    def censored(self) -> bool:
        return self.runtime is None


def run(cfg: RunConfig, run_index: int) -> RunResult:
    """Execute run ``run_index`` of the cell ``cfg``: one seeded elitist loop.

    The run draws from stream (master_seed, run_index).  Proposals at
    least as fit as the incumbent are accepted; the runtime is the first
    iteration whose incumbent attains the fitness maximum (0 when the
    initial individual is already optimal), or None once ``max_iters``
    proposals were exhausted.
    """
    fit = cfg.fitness
    rng = RngStream(cfg.master_seed, run_index).generator()
    x0 = sample_bitstring(fit.n, cfg.init, rng)
    record = cfg.record_trajectory or cfg.record_restart_stats
    traj: Optional[list[int]] = [x0.ones] if record else None
    engine = _run_level if fit.level_symmetric else _run_blocked
    runtime = engine(fit, cfg.mutation.ell, x0, rng, cfg.max_iters, traj)
    return RunResult(
        runtime=runtime,
        init_ones=x0.ones,
        trajectory=np.asarray(traj, dtype=np.int64) if cfg.record_trajectory else None,
        restart=(
            extract_restart_stats(traj, fit.n, fit.r) if cfg.record_restart_stats else None
        ),
    )


def _batch_sizes(first, largest, cap):
    """Sizes of the draw batches of a run of up to ``cap`` proposals.

    The first batch has ``first`` proposals and each later one twice as
    many, up to ``largest``; the last stops at ``cap``.  Short runs thus
    overdraw little, and overdrawing is safe: every run owns its
    generator and nothing draws from it after its engine returns.
    """
    size, t = first, 0
    while t < cap:
        k = min(size, cap - t)
        yield k
        t += k
        size = min(2 * size, largest)


def _subset_batches(n, ell, rng, cap):
    """Proposal flip sets for up to ``cap`` proposals, as (rows, ell) arrays."""
    row_cap = max(1, _SUBSET_BUDGET // n)
    for k in _batch_sizes(min(_SUBSET_ROWS_FIRST, row_cap), row_cap, cap):
        yield sample_uniform_subset(n, ell, rng, size=k)


def _index_batches(n, rng, cap):
    """Single-flip positions for up to ``cap`` proposals, as lists.

    ``integers(0, n)`` consumes the stream draw by draw (below 2**32
    through a 32-bit buffer kept in the bit generator's state), so the
    batches replay exactly the indices one call of their total size
    would return.
    """
    for k in _batch_sizes(_BATCH_FIRST, _BATCH, cap):
        yield rng.integers(0, n, size=k).tolist()


def _run_level(fit, ell, x0, rng, cap, traj):
    """Engine for objectives of the ones count: the state is the incumbent's bits.

    Fitness is read from the objective's per-level tables; at ell=1 a
    proposal needs only the acceptance of one step up or down from the
    incumbent's level.
    """
    n = fit.n
    fmax = fit.max_value
    vals, up, down = fit.level_tables
    ones = x0.ones
    fx = vals[ones]
    if fx == fmax:
        return 0
    append = traj.append if traj is not None else None
    t = 0
    if ell == 1:
        bits = x0.unpacked().tolist()
        for batch in _index_batches(n, rng, cap):
            for i in batch:
                t += 1
                if bits[i]:
                    if down[ones]:
                        bits[i] = 0
                        ones -= 1
                elif up[ones]:
                    bits[i] = 1
                    ones += 1
                if append is not None:
                    append(ones)
                if vals[ones] == fmax:
                    return t
        return None
    x = int.from_bytes(x0.words.astype("<u8").tobytes(), "little")
    for batch in _subset_batches(n, ell, rng, cap):
        bits = np.zeros((len(batch), n), dtype=bool)
        bits[np.arange(len(batch))[:, None], batch] = True
        for row in np.packbits(bits, axis=1, bitorder="little"):
            m = int.from_bytes(row.tobytes(), "little")
            t += 1
            cand = ones + ell - 2 * (x & m).bit_count()
            fy = vals[cand]
            if fy >= fx:
                x ^= m
                ones = cand
                fx = fy
            if append is not None:
                append(ones)
            if fx == fmax:
                return t
    return None


def _run_blocked(fit, ell, x0, rng, cap, traj):
    """Engine for blocked objectives: the state is the bits, the per-block
    ones counts and the vote mask.

    A proposal changes only the counts of the blocks its flips hit, and it
    is scored only when it flips a vote; any other proposal keeps every
    vote, so its fitness equals the incumbent's and it is accepted.
    """
    n, k = fit.n, fit.k
    thr = fit.block_threshold
    fmax = fit.max_value
    score = fit.vote_value
    bit_arr = x0.unpacked()
    counts = bit_arr.reshape(fit.blocks, k).sum(axis=1).tolist()
    votes = fit.votes(counts)
    fx = score(votes, votes.bit_count())
    if fx == fmax:
        return 0
    bits = bit_arr.tolist()
    ones = x0.ones
    append = traj.append if traj is not None else None
    t = 0
    if ell == 1:
        # a +-1 step crosses the threshold iff the two counts are thr-1, thr
        crossing = 2 * thr - 1
        for batch in _index_batches(n, rng, cap):
            for i in batch:
                t += 1
                b = i // k
                old = counts[b]
                on = bits[i]
                c = old - 1 if on else old + 1
                if c + old == crossing:
                    v = votes ^ (1 << b)
                    fy = score(v, v.bit_count())
                    if fy < fx:
                        if append is not None:
                            append(ones)
                        continue
                    votes = v
                    fx = fy
                bits[i] = on ^ 1
                counts[b] = c
                ones += -1 if on else 1
                if append is not None:
                    append(ones)
                if fx == fmax:
                    return t
        return None
    for batch in _subset_batches(n, ell, rng, cap):
        for row in batch.tolist():
            t += 1
            new: dict[int, int] = {}
            for i in row:
                b = i // k
                new[b] = new.get(b, counts[b]) + 1 - 2 * bits[i]
            v = votes
            for b, c in new.items():
                if (c >= thr) != (counts[b] >= thr):
                    v ^= 1 << b
            if v != votes:
                fy = score(v, v.bit_count())
                if fy < fx:
                    if append is not None:
                        append(ones)
                    continue
                votes = v
                fx = fy
            for i in row:
                ones += 1 - 2 * bits[i]
                bits[i] ^= 1
            for b, c in new.items():
                counts[b] = c
            if append is not None:
                append(ones)
            if fx == fmax:
                return t
    return None


def extract_restart_stats(
    trajectory: Sequence[int], n: int, r: int
) -> RestartStats:
    """Recover the crossing/return stopping times from a ones-count trajectory.

    ``trajectory[t]`` is the incumbent's ones count at iteration t; the
    final entry of an uncensored run on the one-sided objective is the
    first with at least n/2 + r ones.  Phases alternate between the next
    time the incumbent is a two-sided-plateau optimum and, after a hit on
    the zeros side, the next time it regains at least n/2 ones; one
    forward pass alternates between seeking the one and the other.
    """
    if n <= 0 or n % 2 or not 1 <= r <= n // 2:
        raise ValueError(f"invalid parameters n={n}, r={r}")
    bad = "trajectory must be a non-empty sequence of ones counts"
    # the engines record a list; anything else is read through numpy, and a
    # nested list (2-D input) fails the integer comparisons below
    values = (
        trajectory
        if isinstance(trajectory, list)
        else np.asarray(trajectory, dtype=np.int64).tolist()
    )
    if not values:
        raise ValueError(bad)
    half, top = n // 2, n // 2 + r
    # a two-sided-plateau optimum has at least top ones or at most n - top
    low = n - top
    hits: list[int] = []
    returns: list[int] = []
    success = False
    seeking_plateau = True
    try:
        for t, ones in enumerate(values):
            if seeking_plateau:
                if ones >= top:
                    hits.append(t)
                    success = True
                    break
                if ones <= low:
                    hits.append(t)
                    seeking_plateau = False
            elif ones >= half:
                returns.append(t)
                if ones >= top:
                    success = True
                    break
                seeking_plateau = True
    except TypeError as exc:
        raise ValueError(bad) from exc
    retries = len(hits) - 1 if success else len(hits)
    return RestartStats(
        plateau_hits=tuple(hits),
        half_returns=tuple(returns),
        retries=retries,
        retried=retries >= 1,
        first_hit_majority=bool(hits) and values[hits[0]] >= top,
        partial=not success,
    )

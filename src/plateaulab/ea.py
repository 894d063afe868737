"""Elitist single-individual search with exact-cardinality bit-flip mutation."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import KW_ONLY, dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .core import (
    FixedOnes,
    InitDistribution,
    RngStream,
    rejection_regime,
    sample_bitstring,
    sample_uniform_subset,
)
from .fitness import BlockedFitness, FitnessFunction, MajorityFitness

DEFAULT_CAP = 10**9
# ell=1 proposal batches: the first has this many indices, each later one
# twice as many, up to _BATCH.  One integers() call costs about as much as
# some 500 more indices in the call before it, and most plateau and
# majority runs outlast 64 proposals
_BATCH_FIRST = 256
_BATCH = 4096
# ell>1 proposal batches: the first has this many rejection rows or this
# many shuffled rows (a lockstep shuffle's fixed cost per batch outweighs
# its cost per row), each later one twice as many, capped so that a batch
# holds at most this many rejection draws' indices, or this many positions
# of lockstep shuffles
_REJECTION_ROWS_FIRST = 16
_SHUFFLE_ROWS_FIRST = 64
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
    equal pairs replay bit-identically.  Run i draws from stream
    (``cell_seed``, i), a 64-bit BLAKE2b digest of the master seed, the
    objective's repr (function, n, r, k), ell and the init's repr: not of
    the cap, what the run records, or the other cells of a sweep.
    """

    fitness: FitnessFunction
    mutation: RlsMutation
    init: InitDistribution
    master_seed: int
    _: KW_ONLY
    max_iters: int = DEFAULT_CAP
    record_trajectory: bool = False
    record_restart_stats: bool = False
    cell_seed: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        RngStream(self.master_seed)  # rejects a seed outside the Philox key range
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
        if isinstance(self.init, FixedOnes):
            self.init.checked(self.fitness.n)
        import hashlib  # loaded by numpy.random, which every run needs anyway

        cell = f"{self.master_seed}|{self.fitness!r}|ell={self.mutation.ell}|{self.init!r}"
        digest = hashlib.blake2b(cell.encode(), digest_size=8).digest()
        object.__setattr__(self, "cell_seed", int.from_bytes(digest, "little"))


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


@dataclass(eq=False, slots=True)
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

    The run draws from stream (cfg.cell_seed, run_index).  Proposals at
    least as fit as the incumbent are accepted; the runtime is the first
    iteration whose incumbent attains the fitness maximum (0 when the
    initial individual is already optimal), or None once ``max_iters``
    proposals were exhausted.
    """
    fit, init = cfg.fitness, cfg.init
    rng = RngStream(cfg.cell_seed, run_index).generator()
    if fit.level_symmetric:
        # the level engine's state is the ones count: a fixed count draws nothing
        fixed = isinstance(init, FixedOnes)
        state = init.ones if fixed else sample_bitstring(fit.n, init, rng).ones
        init_ones, engine = state, _run_level
    else:
        state = sample_bitstring(fit.n, init, rng)
        init_ones, engine = state.ones, _run_blocked
    record = cfg.record_trajectory or cfg.record_restart_stats
    traj: Optional[list[int]] = [init_ones] if record else None
    runtime = engine(fit, cfg.mutation.ell, state, rng, cfg.max_iters, traj)
    return RunResult(
        runtime=runtime,
        init_ones=init_ones,
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
    # a rejection row costs O(ell), a shuffled row O(n)
    if rejection_regime(n, ell):
        first, row_cost = _REJECTION_ROWS_FIRST, ell
    else:
        first, row_cost = _SHUFFLE_ROWS_FIRST, n
    row_cap = max(1, _SUBSET_BUDGET // row_cost)
    for k in _batch_sizes(min(first, row_cap), row_cap, cap):
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


def _run_level(fit, ell, ones, rng, cap, traj):
    """Engine for objectives of the ones count: the state is the ones count.

    The positions of a flip set are uniform and independent of the
    incumbent, so by exchangeability its ones may be taken to sit at
    positions 0..ones-1: a proposal turns ``a`` ones into zeros when ``a``
    of its flips lie below ``ones``.  Fitness is read from the objective's
    per-level tables; at ell=1 a proposal moves the incumbent to its level's
    successor one set bit down or up, which is the level itself when the
    step is rejected.
    """
    n = fit.n
    fmax = fit.max_value
    vals, lower, higher = fit.level_tables
    fx = vals[ones]
    if fx == fmax:
        return 0
    append = traj.append if traj is not None else None
    t = 0
    if ell == 1:
        for batch in _index_batches(n, rng, cap):
            for i in batch:
                t += 1
                ones = lower[ones] if i < ones else higher[ones]
                if append is not None:
                    append(ones)
                if vals[ones] == fmax:
                    return t
        return None
    # above n/2 a proposal draws the n - ell positions it keeps, a uniform
    # set whose complement is uniform too; at ell=n it draws nothing.  A
    # sorted row holding a of the incumbent's ones moves it to
    # ones + ell - 2a as the flip set, and to ell - ones + 2a as the kept set
    m = min(ell, n - ell)
    sign = 1 if m == ell else -1
    batches = (
        (np.sort(b, axis=1).tolist() for b in _subset_batches(n, m, rng, cap))
        if m
        else [repeat((), cap)]
    )
    for rows in batches:
        for row in rows:
            t += 1
            cand = ell + sign * (ones - 2 * bisect_left(row, ones))
            fy = vals[cand]
            if fy >= fx:
                ones = cand
                fx = fy
            if append is not None:
                append(ones)
            if fx == fmax:
                return t
    return None


def _run_blocked(fit, ell, x0, rng, cap, traj):
    """Engine for blocked objectives: the state is the bits, the ones
    counts of the scored blocks and their vote mask.

    A proposal changes only the counts of the blocks its flips hit, and it
    is scored only when it flips a vote; any other proposal keeps every
    vote, so its fitness equals the incumbent's and it is accepted.  A flip
    outside the scored blocks never moves a vote: at ell=1, unless a
    trajectory is recorded, nothing reads its bit again, and it is not
    applied.
    """
    n, k = fit.n, fit.k
    thr = fit.block_threshold
    fmax = fit.max_value
    score = fit.vote_value
    scored = fit.scored_blocks
    # the scored blocks' bits are positions lo..hi-1
    lo, hi = scored.start * k, scored.stop * k
    counts = fit.block_counts(x0.bits)
    votes = 0
    for b in scored:
        if counts[b] >= thr:
            votes |= 1 << b
    fx = score(votes, votes.bit_count())
    if fx == fmax:
        return 0
    bits = x0.unpacked().tolist()
    ones = x0.ones
    append = traj.append if traj is not None else None
    t = 0
    if ell == 1:
        # a +-1 step crosses the threshold iff the two counts are thr-1, thr
        crossing = 2 * thr - 1
        for batch in _index_batches(n, rng, cap):
            for i in batch:
                t += 1
                if lo <= i < hi:
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
                        if fy == fmax:
                            # only a vote change can reach the maximum
                            if append is not None:
                                append(ones - 1 if on else ones + 1)
                            return t
                        votes = v
                        fx = fy
                    counts[b] = c
                elif append is None:
                    # outside the scored blocks, and no trajectory reads it
                    continue
                else:
                    on = bits[i]
                bits[i] = on ^ 1
                ones += -1 if on else 1
                if append is not None:
                    append(ones)
        return None
    for batch in _subset_batches(n, ell, rng, cap):
        for row in batch.tolist():
            t += 1
            new: dict[int, int] = {}
            for i in row:
                if lo <= i < hi:
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

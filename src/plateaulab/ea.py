"""Elitist single-individual search with exact-cardinality bit-flip mutation."""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import KW_ONLY, dataclass, field
from operator import length_hint, lt
from typing import Optional, Sequence

import numpy as np

from .core import (
    BitString,
    Draws,
    FixedOnes,
    InitDistribution,
    RngStream,
    UniformNonOptimal,
    rejection_regime,
    reset_stream,
    sample_bitstring,
    sample_uniform_subset,
)
from .fitness import ROW_LIMIT, BlockedFitness, FitnessFunction, MajorityFitness

DEFAULT_CAP = 10**9
# ell=1 proposal batches: the first reads this many bytes of the stream up
# to n = 256 (a position each, less those the byte rule drops) and draws
# this many indices past it, each later one twice as many, up to _BATCH.
# A byte batch costs about 0.7 us plus 3.2 ns a byte at n = 100 (1.2 ns
# where the rule drops no byte, as at n = 256), a Draws.below batch 3.9 us
# plus about 3.5 ns an index, listed; most plateau and majority runs
# outlast 64 proposals, and first batches of 128, 384 and 512 bytes ran
# within noise of 256
_BATCH_FIRST = 256
_BATCH = 4096
# the largest n whose positions the byte rule draws, one byte each
_BYTE_LIMIT = 256
# ell>1 proposal batches: the first has this many rejection rows or this
# many shuffled rows (a lockstep shuffle's fixed cost per batch outweighs
# its cost per row), each later one twice as many, capped so that a batch
# holds at most this many rejection draws' indices or lockstep positions.
# Past that cap (n > 128) lockstep batches still double up to the first
# batch's rows, as long as their frame of positions stays within
# _SHUFFLE_POSITIONS: that bounds the bytes of each cached frame and of
# the copy a batch shuffles, 1 MiB at two bytes a position (n <= 65536)
_REJECTION_ROWS_FIRST = 16
_SHUFFLE_ROWS_FIRST = 64
_SUBSET_BUDGET = 8192
_SHUFFLE_POSITIONS = _SHUFFLE_ROWS_FIRST * _SUBSET_BUDGET
# generators no run holds, as Draws, each left where its last run
# stopped.  A run pops one and resets it to its own stream, for about a
# tenth of what building one costs; list.pop and list.append are atomic,
# so concurrent runs never share a generator, and each process has its
# own list
_SPARE_GENERATORS: list[Draws] = []


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
        if self.record_restart_stats and self.fitness.r < 1:
            raise ValueError(f"restart statistics need a surplus r >= 1, got r={self.fitness.r}")
        if isinstance(self.init, FixedOnes):
            self.init.checked(self.fitness.n)
        if isinstance(self.init, UniformNonOptimal):
            target = self.init.fitness
            if target.level_symmetric and all(target.optimal_levels):
                # the rejection sampler would draw in vain until it gives up
                raise ValueError("every level is optimal: no non-optimal start exists")
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
    fit, init, ell = cfg.fitness, cfg.init, cfg.mutation.ell
    try:
        draws = _SPARE_GENERATORS.pop()
    except IndexError:
        draws = Draws(RngStream(cfg.cell_seed, run_index).generator(), buffered=False)
    else:
        # rejects an index outside [0, 2**64), as RngStream does
        reset_stream(draws.rng, cfg.cell_seed, run_index)
        # a reset leaves no half word buffered
        draws.buffered = False
    if fit.level_symmetric:
        # the level engine's state is the ones count: a fixed count draws nothing
        fixed = isinstance(init, FixedOnes)
        state = init.ones if fixed else sample_bitstring(fit.n, init, draws).ones
        init_ones, engine = state, _run_level
    else:
        state = sample_bitstring(fit.n, init, draws)
        init_ones, engine = state.ones, _run_blocked
    record = cfg.record_trajectory or cfg.record_restart_stats
    traj: Optional[list[int]] = [init_ones] if record else None
    times: Optional[list[int]] = None
    if cfg.record_restart_stats and not cfg.record_trajectory and ell == 1:
        # the record holds the start and each phase exit, at these times
        n, top = fit.n, fit.threshold
        times = [0]
        runtime = 0 if state >= top else _walk(
            n, state, draws, cfg.max_iters, *fit.phase_tables, top, n - top, times, traj
        )
    else:
        runtime = engine(fit, ell, state, draws, cfg.max_iters, traj)
    # only a run that returns puts its generator back; one that raised drops it
    _SPARE_GENERATORS.append(draws)
    return RunResult(
        runtime=runtime,
        init_ones=init_ones,
        trajectory=np.asarray(traj, dtype=np.int64) if cfg.record_trajectory else None,
        restart=(
            extract_restart_stats(traj, fit.n, fit.r, times=times)
            if cfg.record_restart_stats
            else None
        ),
    )


def _batch_sizes(first, largest, cap):
    """Sizes of the draw batches of a run of up to ``cap`` proposals.

    The first batch has ``first`` proposals and each later one twice as
    many, up to ``largest``; the last stops at ``cap``.  Short runs thus
    overdraw little, and overdrawing is safe: a run holds its generator
    alone, and the next run to take it resets it to its own stream.
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
        first, row_cost, largest = _REJECTION_ROWS_FIRST, ell, 1
    else:
        first, row_cost = _SHUFFLE_ROWS_FIRST, n
        largest = min(first, _SHUFFLE_POSITIONS // n)
    row_cap = max(1, _SUBSET_BUDGET // row_cost)
    for k in _batch_sizes(min(first, row_cap), max(row_cap, largest), cap):
        yield sample_uniform_subset(n, ell, rng, size=k)


def _index_batches(n, draws, cap):
    """Single-flip positions for up to ``cap`` proposals: ``bytes`` up to
    n = 256 (see ``_byte_batches``), uint32 arrays past it.

    Past n = 256 a batch is ``Draws.below(n, k)``, what ``integers(0, n,
    size=k)`` returns.  ``integers(0, n)`` consumes the stream draw by draw
    (below 2**32 through a 32-bit buffer kept in the bit generator's
    state), so the batches replay exactly the indices one call of their
    total size would return, and ``Draws`` keeps the run's record of the
    half word.  The level and phase loops walk each batch as ``bytes`` or
    as a list (``_flip_lists``), the unrecorded blocked loop its scored
    flips (one ``bytes.translate`` keeps them up to n = 256, a numpy
    filter past it), and the recorded blocked loop lists it as one-index
    rows.
    """
    if n <= _BYTE_LIMIT:
        return _byte_batches(n, draws, cap)
    below = draws.below
    return (below(n, k) for k in _batch_sizes(_BATCH_FIRST, _BATCH, cap))


def _flip_lists(n, draws, cap):
    """``_index_batches`` as the engine loops walk them: ``bytes`` as they
    are, arrays as lists.  Both index and iterate as ints, and both
    iterators report what they have left to ``length_hint``."""
    batches = _index_batches(n, draws, cap)
    return batches if n <= _BYTE_LIMIT else (a.tolist() for a in batches)


def _byte_batches(n, draws, cap):
    """Single-flip positions at n <= 256 for up to ``cap`` proposals, as
    ``bytes``, by the byte rule: each byte b of the stream below
    256 - 256 % n is the position b % n, and every other byte is dropped,
    so each position is exactly uniform on [0, n).

    A batch reads the bytes of the stream's next 32-bit draws,
    ``Draws.u32(...).tobytes()``, which are what ``Generator.bytes``
    returns, and keeps the run's record of the half word.  With no half
    word buffered those draws are whole raw words, read without ``u32``'s
    call and view, and none is buffered after.  A batch reads
    ``_BATCH_FIRST`` bytes first and twice as many each time after, up to
    ``_BATCH``, whatever the cap; one ``bytes.translate`` call keeps and
    maps a batch's bytes, and the last batch is cut to the cap.
    """
    table, rejected = _byte_rule(n)
    u32 = draws.u32
    raw = draws._raw if draws.buffered is False else None
    size, left = _BATCH_FIRST, cap
    while True:
        words = u32(size >> 2) if raw is None else raw(size >> 3)
        batch = words.tobytes().translate(table, rejected)
        if len(batch) >= left:
            yield batch[:left]
            return
        yield batch
        left -= len(batch)
        size = min(2 * size, _BATCH)


@functools.lru_cache(maxsize=_BYTE_LIMIT)
def _scored_rule(lo, hi):
    """``bytes.translate``'s table and deleted bytes that keep the
    positions lo..hi-1 of a byte batch, numbered from lo, and drop the
    others (hi <= 256)."""
    return bytes((b - lo) % 256 for b in range(256)), bytes(range(lo)) + bytes(range(hi, 256))


@functools.lru_cache(maxsize=_BYTE_LIMIT)
def _byte_rule(n):
    """``bytes.translate``'s table and deleted bytes for the byte rule at
    n <= 256: byte b maps to b % n, and the bytes from 256 - 256 % n up
    are deleted."""
    return bytes(b % n for b in range(256)), bytes(range(256 - 256 % n, 256))


def _listed(a, bound):
    """The values of the integer array ``a``, all below ``bound``,
    flattened into the container the engine loops read: ``bytes`` when
    each fits in a byte, else a list.  Both index and iterate as ints,
    and both iterators report what they have left to ``length_hint``.
    """
    if bound <= 256:
        return a.astype(np.uint8).tobytes()
    return a.ravel().tolist()


def _run_level(fit, ell, ones, draws, cap, traj):
    """Engine for objectives of the ones count: the state is the ones count.

    The positions of a flip set are uniform and independent of the
    incumbent, so by exchangeability its ones may be taken to sit at
    positions 0..ones-1: a proposal turns ``a`` ones into zeros when ``a``
    of its flips lie below ``ones``.  Fitness is read from the objective's
    per-level values.  An unrecorded ell=1 run is a ``_walk`` of one phase,
    the objective's ``stop_tables``, whose every exit is a hit; every other
    run, recorded ell=1 runs included, takes the flip-set loop.
    """
    n = fit.n
    if fit.optimal_levels[ones]:
        return 0
    if ell == 1 and traj is None:
        # every exit reads back a count j >= 0 = top, so the first ends the
        # run; low = -1 never picks the second phase
        stops = fit.stop_tables
        return _walk(n, ones, draws, cap, stops, stops, 0, -1, None, None)
    fmax = fit.max_value
    vals = fit.level_tables[0]
    append = traj.append if traj is not None else None
    t = 0
    fx = vals[ones]
    # above n/2 a proposal draws the n - ell positions it keeps, a uniform
    # set whose complement is uniform too; at ell=n it draws nothing.  A
    # sorted row holding a of the incumbent's ones moves it to
    # ones + ell - 2a as the flip set, and to ell - ones + 2a as the kept set
    m = min(ell, n - ell)
    sign = 1 if m == ell else -1
    # a batch's sorted rows lie end to end, proposal j's in lo..lo+m-1 for
    # lo = j * m, so its a is their bisect less lo.  At ell=n each proposal
    # has one entry and an empty row, which bisects to lo.  At ell=1 (n > 1)
    # a row is the one position a single-flip walk draws
    step = m or 1
    if not m:
        batches = [range(cap)]
    elif ell == 1:
        batches = _flip_lists(n, draws, cap)
    else:
        batches = (_listed(np.sort(b, axis=1), n) for b in _subset_batches(n, m, draws, cap))
    for flat in batches:
        for lo in range(0, len(flat), step):
            cand = ell + sign * (ones - 2 * (bisect_left(flat, ones, lo, lo + m) - lo))
            fy = vals[cand]
            if fy >= fx:
                ones = cand
                fx = fy
            if append is not None:
                append(ones)
            if fx == fmax:
                return t + lo // step + 1
        t += len(flat) // step
    return None


def _walk(n, ones, draws, cap, seeking, returning, top, low, times, counts):
    """Single-flip walk of a level run from ``ones``: the proposal at which
    it exits onto ``top`` ones or more, or None after ``cap`` proposals.

    A phase is an objective's ``stop_tables``: its rows up to n =
    ``ROW_LIMIT``, one lookup a step, and past it its (lower, higher) pair.
    An exit onto j moves to n + 1 + j, so the next lookup, even the next
    batch's first, raises IndexError before it applies its index; that
    index is applied from j under ``returning`` at ``low`` ones or fewer,
    else under ``seeking``.  With ``times``, the time and count of each
    exit are appended to ``times`` and ``counts``; nothing per proposal.
    """
    stop = n + 1
    rowed = n <= ROW_LIMIT
    phase = returning if ones <= low else seeking
    t = 0
    for batch in _flip_lists(n, draws, cap):
        it = iter(batch)
        while True:
            try:
                if rowed:
                    for i in it:
                        ones = phase[ones][i]
                else:
                    lower, higher = phase
                    for i in it:
                        ones = lower[ones] if i < ones else higher[ones]
                break
            except IndexError:
                ones -= stop
                at = t + len(batch) - length_hint(it) - 1
                if times is not None:
                    times.append(at)
                    counts.append(ones)
                if ones >= top:
                    return at
                phase = returning if ones <= low else seeking
                # a pair's second table is higher, taken when i >= ones
                ones = phase[ones][i] if rowed else phase[i >= ones][ones]
        t += len(batch)
    if ones > n:
        # the cap's proposal exited
        ones -= stop
        if times is not None:
            times.append(t)
            counts.append(ones)
        if ones >= top:
            return t
    return None


def _run_blocked(fit, ell, x0, draws, cap, traj):
    """Engine for blocked objectives: the state is the bits, the ones
    counts of the scored blocks and their vote mask.

    A proposal changes only the counts of the blocks its flips hit, and it
    is scored only when it flips a vote; any other proposal keeps every
    vote, so its fitness equals the incumbent's and it is accepted.  A flip
    outside the scored blocks never moves a vote: at ell=1, unless a
    trajectory is recorded, nothing reads its bit again, so only the
    scored bits are kept and the other flips are dropped: by one
    ``bytes.translate`` up to n = 256, in numpy past it.
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
    append = traj.append if traj is not None else None
    t = 0
    if ell == 1 and append is None:
        # positions, blocks and bits count from lo.  A +-1 step crosses the
        # threshold iff the two counts are thr-1, thr; only a vote change
        # can reach the maximum.  A hit at entry p of a batch's scored
        # flips, read off their iterator as in the level engine, is
        # the batch's proposal pos[p] + 1
        span = hi - lo
        bits = BitString(span, x0.bits >> lo & ((1 << span) - 1)).unpacked().tolist()
        counts = counts[scored.start : scored.stop]
        flags = [1 << b for b in scored]
        crossing = 2 * thr - 1
        if n <= _BYTE_LIMIT:
            table, unscored = _scored_rule(lo, hi)
        for batch in _index_batches(n, draws, cap):
            if n <= _BYTE_LIMIT:
                flips = batch.translate(table, unscored)
            else:
                # the batch is unsigned, so a flip below lo wraps to a value
                # past the span and one comparison keeps the scored ones;
                # nonzero is flatnonzero without its ravel
                batch -= lo
                pos = (batch <= span - 1).nonzero()[0]
                flips = _listed(batch[pos], span)
            it = iter(flips)
            for i in it:
                b = i // k
                old = counts[b]
                on = bits[i]
                c = old - 1 if on else old + 1
                if c + old == crossing:
                    v = votes ^ flags[b]
                    fy = score(v, v.bit_count())
                    if fy < fx:
                        continue
                    if fy == fmax:
                        if n <= _BYTE_LIMIT:
                            # the scored flips' places in the batch, found
                            # once, at the hit; uint8 wraps as above
                            pos = (np.frombuffer(batch, np.uint8) - lo <= span - 1).nonzero()[0]
                        return t + int(pos[len(flips) - length_hint(it) - 1]) + 1
                    votes = v
                    fx = fy
                counts[b] = c
                bits[i] = on ^ 1
            t += len(batch)
        return None
    bits = x0.unpacked().tolist()
    ones = x0.ones
    if ell == 1:
        # a recorded run draws the indices an unrecorded one does, as rows
        batches = ([[i] for i in batch] for batch in _flip_lists(n, draws, cap))
    else:
        batches = (batch.tolist() for batch in _subset_batches(n, ell, draws, cap))
    for rows in batches:
        for row in rows:
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
    trajectory: Sequence[int], n: int, r: int, *, times: Optional[Sequence[int]] = None
) -> RestartStats:
    """Recover the crossing/return stopping times from a ones-count trajectory.

    ``trajectory[t]`` is the incumbent's ones count at iteration t; the
    final entry of an uncensored run on the one-sided objective is the
    first with at least n/2 + r ones.  Phases alternate between the next
    time the incumbent is a two-sided-plateau optimum and, after a hit on
    the zeros side, the next time it regains at least n/2 ones; one
    forward pass alternates between seeking the one and the other.

    With ``times``, strictly increasing from 0, ``trajectory[i]`` is the
    count at iteration ``times[i]`` instead: a sparse record that holds
    the start and every phase exit gives what the whole trajectory gives.
    """
    if n <= 0 or n % 2 or not 1 <= r <= n // 2:
        raise ValueError(f"invalid parameters n={n}, r={r}")
    bad = "trajectory must be a non-empty sequence of ones counts"
    # the engines record lists; anything else is read through numpy (a 0-d
    # array reads as a scalar), and a nested list (2-D input) fails the
    # integer comparisons below
    values = (
        trajectory
        if isinstance(trajectory, list)
        else np.asarray(trajectory, dtype=np.int64).tolist()
    )
    if not isinstance(values, list) or not values:
        raise ValueError(bad)
    stamped = enumerate(values)
    if times is not None:
        stamps = times if isinstance(times, list) else np.asarray(times, dtype=np.int64).tolist()
        try:
            if len(stamps) != len(values):
                raise ValueError(
                    f"times has {len(stamps)} entries for {len(values)} ones counts"
                )
            if stamps[0] != 0 or not all(map(lt, stamps, stamps[1:])):
                raise ValueError("times must increase strictly from 0")
        except TypeError as exc:
            raise ValueError("times must be a sequence of iterations") from exc
        stamped = zip(stamps, values)
    half, top = n // 2, n // 2 + r
    # a two-sided-plateau optimum has at least top ones or at most n - top
    low = n - top
    hits: list[int] = []
    returns: list[int] = []
    success = False
    seeking_plateau = True
    try:
        for t, ones in stamped:
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
        # a hit on the zeros side is followed by a return before any other
        # hit, so the first hit is the majority hit iff a run succeeds
        # without returning
        first_hit_majority=success and not returns,
        partial=not success,
    )

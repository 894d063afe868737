"""Pseudo-Boolean objectives: threshold plateaus, majority counts, blocked neutrality."""

from __future__ import annotations

import functools
from typing import Sequence

from .core import BitString
from .theory import _check_params


# the largest n whose stop tables are rows per ones count, not a pair:
# the n + 1 rows of n entries grow as n**2 (about 0.5 MB at n = 256)
ROW_LIMIT = 256


class FitnessFunction:
    """Integer-valued objective over bitstrings of a fixed length ``n``.

    ``max_value`` is attained by at least one input and never exceeded.
    ``level_symmetric`` marks functions that depend on the input only
    through its ones count; those expose ``level_value``, the others
    ``value_bits``.  The repr names the objective and its parameters:
    it keys the random streams of the runs on it (``RunConfig``).
    """

    n: int
    max_value: int
    level_symmetric = False

    def value(self, x: BitString) -> int:
        if x.n != self.n:
            raise ValueError(f"expected a length-{self.n} bitstring, got {x.n}")
        if self.level_symmetric:
            return self.level_value(x.ones)
        return self.value_bits(x.bits)

    def value_bits(self, bits: int) -> int:
        """Evaluate from the string's bits, bit i being position i."""
        raise NotImplementedError

    def level_value(self, ones: int) -> int:
        raise NotImplementedError(
            f"{type(self).__name__} does not depend on the ones count alone"
        )

    @functools.cached_property
    def level_tables(self) -> tuple[list[int], list[int], list[int]]:
        """``level_value`` at every ones count 0..n, and per count j the count
        an elitist single flip moves to from j: ``lower[j]`` when it clears
        a set bit, ``higher[j]`` when it sets one.  Each is the neighbouring
        count when that scores at least as high, else j; built once."""
        n = self.n
        vals = [self.level_value(j) for j in range(n + 1)]
        lower = [j - 1 if j > 0 and vals[j - 1] >= vals[j] else j for j in range(n + 1)]
        higher = [j + 1 if j < n and vals[j + 1] >= vals[j] else j for j in range(n + 1)]
        return vals, lower, higher

    @functools.cached_property
    def optimal_levels(self) -> list[bool]:
        """Per ones count 0..n, whether it attains ``max_value``; built once."""
        top = self.max_value
        return [v == top for v in self.level_tables[0]]

    @functools.cached_property
    def stop_tables(self) -> list[list[int]] | tuple[list[int], list[int]]:
        """The single-flip moves of ``level_tables`` with every move onto an
        optimal count j replaced by n + 1 + j, which indexes no table: a
        single-flip walk stops on the lookup after a hit, without testing
        each count it reaches, and reads j back.  Up to n = ``ROW_LIMIT``
        they are one row per ones count j, indexed by position: row j holds
        ``lower[j]`` at the positions below j and ``higher[j]`` at the
        others, so a flip of position i moves j to ``rows[j][i]``.  Past it
        they are the (lower, higher) pair.  Built once."""
        _, lower, higher = self.level_tables
        n, optimal = self.n, self.optimal_levels
        lower, higher = ([n + 1 + j if optimal[j] else j for j in t] for t in (lower, higher))
        if n > ROW_LIMIT:
            return lower, higher
        return [[down] * j + [up] * (n - j) for j, (down, up) in enumerate(zip(lower, higher))]


class _ThresholdFitness(FitnessFunction):
    """0/1 objective of the ones count with threshold n/2 + r.  Its repr
    keys the random streams of the runs on it (``RunConfig``)."""

    level_symmetric = True
    max_value = 1

    def __init__(self, n: int, r: int):
        _check_params(n, r, min_r=0)
        self.n = n
        self.r = r
        self.threshold = n // 2 + r

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, r={self.r})"


class PlateauFitness(_ThresholdFitness):
    """Two-sided threshold indicator: 1 iff max(#zeros, #ones) >= n/2 + r."""

    def level_value(self, ones: int) -> int:
        return 1 if ones >= self.threshold or self.n - ones >= self.threshold else 0


class MajorityFitness(_ThresholdFitness):
    """One-sided threshold indicator: 1 iff the ones count is >= n/2 + r."""

    def level_value(self, ones: int) -> int:
        return 1 if ones >= self.threshold else 0

    @functools.cached_property
    def phase_tables(self):
        """The ``stop_tables`` of the two phases of a restart-statistics run,
        which are the paper's two objectives: the seeking phase is
        ``PlateauFitness(n, r)``, which stops at n/2 + r ones or more or at
        n/2 - r or fewer, and the returning phase ``MajorityFitness(n, 0)``,
        which stops at n/2 or more.  Built once, and freed with this
        objective."""
        return PlateauFitness(self.n, self.r).stop_tables, MajorityFitness(self.n, 0).stop_tables


class OneMax(FitnessFunction):
    """Number of set bits; maximal at the all-ones string."""

    level_symmetric = True

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self.max_value = n

    def level_value(self, ones: int) -> int:
        return ones

    def __repr__(self) -> str:
        return f"OneMax(n={self.n})"


class BlockedFitness(FitnessFunction):
    """Genotype of ``blocks`` width-k blocks, scored through the blocks' votes.

    A block's vote is 1 exactly when strictly more than half of its k bits
    are set, i.e. at least floor(k/2) + 1 of them; ties on even k vote 0.
    Bit b of a vote mask is the vote of block b (0-based).  Subclasses
    define ``vote_value``, the score of a vote mask plus its vote count,
    so the engine can keep per-block counts and rescore only when a
    proposal flips a vote.  ``vote_value`` reads only the votes of
    ``scored_blocks``, a range of block indices (all blocks unless a
    subclass narrows it): a vote mask holds those votes and no others,
    and a flip outside them never changes the score.
    """

    def __init__(self, blocks: int, k: int):
        if k <= 0 or blocks <= 0:
            raise ValueError("block width and block count must be positive")
        self.blocks = blocks
        self.k = k
        self.n = blocks * k
        self.block_threshold = k // 2 + 1
        self.scored_blocks = range(blocks)

    def vote_value(self, votes: int, count: int) -> int:
        """Score of vote mask ``votes`` with ``count`` set votes (hot path)."""
        raise NotImplementedError

    def block_counts(self, bits: int) -> list[int]:
        """Ones count of each block of ``bits``, 0 for blocks not scored."""
        k = self.k
        mask = (1 << k) - 1
        counts = [0] * self.blocks
        for b in self.scored_blocks:
            counts[b] = (bits >> b * k & mask).bit_count()
        return counts

    def value_bits(self, bits: int) -> int:
        counts, thr = self.block_counts(bits), self.block_threshold
        votes = 0
        for b in self.scored_blocks:
            if counts[b] >= thr:
                votes |= 1 << b
        return self.vote_value(votes, votes.bit_count())

    def value_packed(self, words: Sequence[int], ones: int) -> int:
        """``value_bits`` of the string packed into little-endian 64-bit
        ``words``; ``bench/tracer.py`` times blocked fitness through it."""
        return self.value_bits(sum(int(w) << 64 * i for i, w in enumerate(words)))


class NeutralityFitness(BlockedFitness):
    """Blocked genotype: each width-k block votes, the base scores the votes.

    The base must depend on the ones count alone, so it scores the vote
    count.  The genotype length is base.n * k.
    """

    def __init__(self, base: FitnessFunction, k: int):
        if k <= 0:
            raise ValueError(f"block width must be positive, got {k}")
        if not base.level_symmetric:
            raise ValueError(f"the base must depend on the ones count alone, got {base!r}")
        super().__init__(base.n, k)
        self.base = base
        self.max_value = base.max_value

    def vote_value(self, votes: int, count: int) -> int:
        return self.base.level_value(count)

    def __repr__(self) -> str:
        return f"NeutralityFitness(base={self.base!r}, k={self.k})"


class BlockMajorityFitness(BlockedFitness):
    """Vote of one width-k block inside a blocks*k genotype; 1-based block index.

    Flipping bits outside the block never changes the value, which makes a
    family of these the separable decomposition of OneMax over votes.
    """

    max_value = 1

    def __init__(self, block: int, blocks: int, k: int):
        super().__init__(blocks, k)
        if not 1 <= block <= blocks:
            raise ValueError(f"block index {block} out of range [1..{blocks}]")
        self.block = block
        # only this block's vote is read, so only this block is counted
        self.scored_blocks = range(block - 1, block)

    def vote_value(self, votes: int, count: int) -> int:
        return (votes >> (self.block - 1)) & 1

    def __repr__(self) -> str:
        return f"BlockMajorityFitness(block={self.block}, blocks={self.blocks}, k={self.k})"


FUNCTION_NAMES = ("plateau", "majority", "onemax", "onemax-neutral")


def make_fitness(name: str, n: int, r: int = 0, k: int = 1) -> FitnessFunction:
    """Construct a fitness by CLI/config identifier.

    For ``onemax-neutral``, ``n`` counts blocks and ``k`` the block width,
    so the genotype has n*k bits.
    """
    if name == "plateau":
        return PlateauFitness(n, r)
    if name == "majority":
        return MajorityFitness(n, r)
    if name == "onemax":
        return OneMax(n)
    if name == "onemax-neutral":
        return NeutralityFitness(OneMax(n), k)
    raise ValueError(f"unknown fitness '{name}'; expected one of {FUNCTION_NAMES}")

"""Pseudo-Boolean objectives: threshold plateaus, majority counts, blocked neutrality."""

from __future__ import annotations

from typing import Sequence

from .core import BitString, count_bit_range


class FitnessFunction:
    """Integer-valued objective over bitstrings of a fixed length ``n``.

    ``max_value`` is attained by at least one input and never exceeded.
    ``level_symmetric`` marks functions that depend on the input only
    through its ones count; those expose ``level_value``.
    """

    n: int
    max_value: int
    level_symmetric = False

    def value(self, x: BitString) -> int:
        if x.n != self.n:
            raise ValueError(f"expected a length-{self.n} bitstring, got {x.n}")
        return self.value_packed(x.words, x.ones)

    def value_packed(self, words: Sequence[int], ones: int) -> int:
        """Evaluate from packed words plus a trusted ones count (hot path)."""
        raise NotImplementedError

    def level_value(self, ones: int) -> int:
        raise NotImplementedError(
            f"{type(self).__name__} does not depend on the ones count alone"
        )


def _check_threshold_params(n: int, r: int) -> None:
    if n <= 0 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    if not 0 <= r <= n // 2:
        raise ValueError(f"r must lie in [0..n/2], got r={r} for n={n}")


class PlateauFitness(FitnessFunction):
    """Two-sided threshold indicator: 1 iff max(#zeros, #ones) >= n/2 + r."""

    level_symmetric = True
    max_value = 1

    def __init__(self, n: int, r: int):
        _check_threshold_params(n, r)
        self.n = n
        self.r = r
        self.threshold = n // 2 + r

    def level_value(self, ones: int) -> int:
        return 1 if ones >= self.threshold or self.n - ones >= self.threshold else 0

    def value_packed(self, words: Sequence[int], ones: int) -> int:
        return self.level_value(ones)

    def __repr__(self) -> str:
        return f"PlateauFitness(n={self.n}, r={self.r})"


class MajorityFitness(FitnessFunction):
    """One-sided threshold indicator: 1 iff the ones count is >= n/2 + r."""

    level_symmetric = True
    max_value = 1

    def __init__(self, n: int, r: int):
        _check_threshold_params(n, r)
        self.n = n
        self.r = r
        self.threshold = n // 2 + r

    def level_value(self, ones: int) -> int:
        return 1 if ones >= self.threshold else 0

    def value_packed(self, words: Sequence[int], ones: int) -> int:
        return self.level_value(ones)

    def __repr__(self) -> str:
        return f"MajorityFitness(n={self.n}, r={self.r})"


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

    def value_packed(self, words: Sequence[int], ones: int) -> int:
        return ones

    def __repr__(self) -> str:
        return f"OneMax(n={self.n})"


class NeutralityFitness(FitnessFunction):
    """Blocked genotype: each width-k block votes, the base scores the votes.

    A block's vote is 1 exactly when strictly more than half of its k bits
    are set, i.e. at least floor(k/2) + 1 of them; ties on even k vote 0.
    The genotype length is base.n * k.
    """

    level_symmetric = False

    def __init__(self, base: FitnessFunction, k: int):
        if k <= 0:
            raise ValueError(f"block width must be positive, got {k}")
        self.base = base
        self.k = k
        self.blocks = base.n
        self.n = base.n * k
        self.max_value = base.max_value
        self.block_threshold = k // 2 + 1

    def value_packed(self, words: Sequence[int], ones: int) -> int:
        k = self.k
        thr = self.block_threshold
        if self.base.level_symmetric:
            votes = 0
            for b in range(self.blocks):
                if count_bit_range(words, b * k, b * k + k) >= thr:
                    votes += 1
            return self.base.level_value(votes)
        vote_bits = [
            b
            for b in range(self.blocks)
            if count_bit_range(words, b * k, b * k + k) >= thr
        ]
        return self.base.value(BitString.from_indices(self.blocks, vote_bits))

    def __repr__(self) -> str:
        return f"NeutralityFitness(base={self.base!r}, k={self.k})"


class BlockMajorityFitness(FitnessFunction):
    """Vote of one width-k block inside a blocks*k genotype; 1-based block index.

    Flipping bits outside the block never changes the value, which makes a
    family of these the separable decomposition of OneMax over votes.
    """

    level_symmetric = False
    max_value = 1

    def __init__(self, block: int, blocks: int, k: int):
        if k <= 0 or blocks <= 0:
            raise ValueError("block width and block count must be positive")
        if not 1 <= block <= blocks:
            raise ValueError(f"block index {block} out of range [1..{blocks}]")
        self.block = block
        self.blocks = blocks
        self.k = k
        self.n = blocks * k
        self.lo = (block - 1) * k
        self.hi = block * k
        self.block_threshold = k // 2 + 1

    def value_packed(self, words: Sequence[int], ones: int) -> int:
        return (
            1
            if count_bit_range(words, self.lo, self.hi) >= self.block_threshold
            else 0
        )

    def __repr__(self) -> str:
        return f"BlockMajorityFitness(block={self.block}, blocks={self.blocks}, k={self.k})"


def block_subfunction(neutral: NeutralityFitness, block: int) -> BlockMajorityFitness:
    """The sub-function acting only on block ``block`` of a blocked genotype."""
    return BlockMajorityFitness(block, neutral.blocks, neutral.k)


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

"""Packed bitstrings, keyed random streams, and counting primitives."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

WORD_BITS = 64
_U64_MASK = (1 << 64) - 1
# draws UniformNonOptimal makes before it gives up
_NONOPT_ATTEMPTS = 10_000


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


class BitString:
    """Fixed-length bit vector packed into 64-bit words.

    The number of set bits is cached and kept consistent by every
    operation, so counting stays O(1) no matter how many flips a run
    performs.  Instances are treated as immutable: operations return new
    strings rather than mutating in place.
    """

    __slots__ = ("n", "words", "ones")

    def __init__(self, n: int, words: np.ndarray | None = None):
        if n <= 0:
            raise ValueError("bitstring length must be positive")
        n_words = (n + WORD_BITS - 1) // WORD_BITS
        if words is None:
            words = np.zeros(n_words, dtype=np.uint64)
        else:
            words = np.array(words, dtype=np.uint64)
            if words.shape != (n_words,):
                raise ValueError(f"expected {n_words} words for length {n}")
            tail = n % WORD_BITS
            if tail and (int(words[-1]) >> tail):
                raise ValueError("bits beyond the string length must be zero")
        self.n = n
        self.words = words
        self.ones = _popcount(words)

    @classmethod
    def _raw(cls, n: int, words: np.ndarray, ones: int) -> "BitString":
        # trusted constructor: caller guarantees the invariants
        obj = object.__new__(cls)
        obj.n = n
        obj.words = words
        obj.ones = ones
        return obj

    @classmethod
    def from01(cls, bits: str) -> "BitString":
        """Build from a left-to-right 0/1 string; position 0 is the first char."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError("expected a non-empty string over {0,1}")
        s = cls(len(bits))
        for i, c in enumerate(bits):
            if c == "1":
                s.words[i >> 6] |= np.uint64(1 << (i & 63))
        s.ones = _popcount(s.words)
        return s

    @classmethod
    def from_indices(cls, n: int, idx: Iterable[int]) -> "BitString":
        if n <= 0:
            raise ValueError("bitstring length must be positive")
        pos = np.asarray(idx if isinstance(idx, np.ndarray) else list(idx), dtype=np.int64)
        # viewed as unsigned a negative index is huge, so one max() checks both ends
        if len(pos) and int(pos.view(np.uint64).max()) >= n:
            bad = pos[(pos < 0) | (pos >= n)][0]
            raise ValueError(f"index {bad} out of range for length {n}")
        n_words = (n + WORD_BITS - 1) // WORD_BITS
        bits = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
        bits[pos] = 1
        ones = int(np.count_nonzero(bits))
        if ones != len(pos):
            raise ValueError("indices must be pairwise distinct")
        words = np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)
        return cls._raw(n, words, ones)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for length {self.n}")
        return (int(self.words[i >> 6]) >> (i & 63)) & 1

    def to01(self) -> str:
        return "".join("1" if self.bit(i) else "0" for i in range(self.n))

    def complement(self) -> "BitString":
        words = np.bitwise_not(self.words)
        tail = self.n % WORD_BITS
        if tail:
            words[-1] &= np.uint64((1 << tail) - 1)
        return BitString._raw(self.n, words, self.n - self.ones)

    def unpacked(self) -> np.ndarray:
        """The n bits as a 0/1 uint8 array, position 0 first."""
        return np.unpackbits(
            self.words.astype("<u8").view(np.uint8), count=self.n, bitorder="little"
        )

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"BitString('{self.to01()}')"
        return f"BitString(n={self.n}, ones={self.ones})"


def count_bit_range(words: Sequence[int], lo: int, hi: int) -> int:
    """Number of set bits at positions [lo, hi) of a packed word sequence."""
    if lo >= hi:
        return 0
    w0, w1 = lo >> 6, (hi - 1) >> 6
    if w0 == w1:
        mask = ((1 << (hi - lo)) - 1) << (lo & 63)
        return (int(words[w0]) & mask).bit_count()
    total = (int(words[w0]) >> (lo & 63)).bit_count()
    for w in range(w0 + 1, w1):
        total += int(words[w]).bit_count()
    last_bits = ((hi - 1) & 63) + 1
    total += (int(words[w1]) & ((1 << last_bits) - 1)).bit_count()
    return total


def flip_bits(x: BitString, idx: Iterable[int]) -> BitString:
    """Return a copy of ``x`` flipped exactly at the distinct positions ``idx``."""
    words = x.words.copy()
    flipped_ones = 0
    count = 0
    seen: set[int] = set()
    for i in idx:
        i = int(i)
        if not 0 <= i < x.n:
            raise ValueError(f"index {i} out of range for length {x.n}")
        if i in seen:
            raise ValueError(f"duplicate flip index {i}")
        seen.add(i)
        mask = np.uint64(1 << (i & 63))
        if words[i >> 6] & mask:
            flipped_ones += 1
        words[i >> 6] ^= mask
        count += 1
    return BitString._raw(x.n, words, x.ones + count - 2 * flipped_ones)


@dataclass(frozen=True)
class RngStream:
    """Keyed counter-based random stream.

    Equal (master_seed, stream_index) pairs replay bit-identical
    sequences; distinct stream indices give statistically independent
    streams, so parallel runs can be seeded without coordination.  Both
    values are the 64-bit Philox key words, so each must lie in
    [0, 2**64); anything outside would alias a seed inside.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _U64_MASK:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.master_seed}")
        if not 0 <= self.stream_index <= _U64_MASK:
            raise ValueError(
                f"stream_index must lie in [0, 2**64), got {self.stream_index}"
            )

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def sample_uniform_subset(
    n: int, ell: int, rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray:
    """Draw ``ell`` distinct indices from [0..n-1], uniform over all subsets.

    Rejection sampling is used when ``ell`` is tiny relative to ``n`` and a
    partial Fisher-Yates shuffle otherwise, keeping the expected cost
    O(ell) in both regimes.

    With ``size=k`` the result is a ``(k, ell)`` array whose row i is the
    i-th of k consecutive single draws, and ``rng`` is left in the same
    state those k draws leave it in.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"subset size must lie in [1..n]; got ell={ell}, n={n}")
    if size is not None:
        return _sample_subsets(n, ell, rng, size)
    if ell <= n >> 6:
        chosen: set[int] = set()
        out: list[int] = []
        while len(out) < ell:
            need = ell - len(out)
            for i in rng.integers(0, n, size=2 * need).tolist():
                if i not in chosen:
                    chosen.add(i)
                    out.append(i)
                    if len(out) == ell:
                        break
        return np.asarray(out, dtype=np.int64)
    idx = list(range(n))
    for i, j in enumerate(rng.integers(np.arange(ell), n).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.asarray(idx[:ell], dtype=np.int64)


def _sample_subsets(n: int, ell: int, rng: np.random.Generator, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"batch size must be at least 1, got {k}")
    if ell <= n >> 6 or k == 1:
        # the rejection sampler's draw count varies per subset, and a
        # one-row lockstep shuffle is slower than the scalar one
        return np.stack([sample_uniform_subset(n, ell, rng) for _ in range(k)])
    # one integers() call over the tiled bounds consumes the stream exactly
    # as k calls over np.arange(ell) do, so the k shuffles can run in
    # lockstep on one flat index array, one vectorised swap per step
    js = rng.integers(np.tile(np.arange(ell), k), n).reshape(k, ell)
    base = np.arange(0, k * n, n, dtype=np.int64)
    idx = np.tile(np.arange(n, dtype=np.int64), k)
    for i in range(ell):
        a = base + i
        b = base + js[:, i]
        idx[a], idx[b] = idx[b], idx[a]
    return idx.reshape(k, n)[:, :ell].copy()


class InitDistribution:
    """Marker base class for initial-individual distributions."""

    __slots__ = ()


@dataclass(frozen=True)
class Uniform(InitDistribution):
    """Every bitstring of the given length is equally likely."""


@dataclass(frozen=True)
class FixedOnes(InitDistribution):
    """Uniform over the strings with exactly ``ones`` set bits."""

    ones: int


@dataclass(frozen=True)
class Point(InitDistribution):
    """Deterministic start at a fixed string (given as a 0/1 string)."""

    bits: str


@dataclass(frozen=True)
class UniformNonOptimal(InitDistribution):
    """Uniform conditioned on not being optimal, by rejection sampling."""

    fitness: object


def sample_bitstring(
    n: int, dist: InitDistribution, rng: np.random.Generator
) -> BitString:
    """Draw one bitstring of length ``n`` from the given distribution."""
    if isinstance(dist, Uniform):
        return _sample_uniform(n, rng)
    if isinstance(dist, FixedOnes):
        j = dist.ones
        if not 0 <= j <= n:
            raise ValueError(f"ones count {j} exceeds length {n}")
        if j in (0, n):
            # the only string with j ones: nothing is drawn from the stream
            return BitString.from_indices(n, range(j))
        return BitString.from_indices(n, sample_uniform_subset(n, j, rng))
    if isinstance(dist, Point):
        x = BitString.from01(dist.bits)
        if x.n != n:
            raise ValueError(f"point has length {x.n}, expected {n}")
        return x
    if isinstance(dist, UniformNonOptimal):
        fit = dist.fitness
        for _ in range(_NONOPT_ATTEMPTS):
            x = _sample_uniform(n, rng)
            if fit.value(x) < fit.max_value:
                return x
        raise RuntimeError(
            f"no non-optimal string found in {_NONOPT_ATTEMPTS} attempts; "
            "the function may be optimal almost everywhere"
        )
    raise ValueError(f"unknown initialization distribution {dist!r}")


def _sample_uniform(n: int, rng: np.random.Generator) -> BitString:
    n_words = (n + WORD_BITS - 1) // WORD_BITS
    words = np.frombuffer(rng.bytes(n_words * 8), dtype=np.uint64).copy()
    tail = n % WORD_BITS
    if tail:
        words[-1] &= np.uint64((1 << tail) - 1)
    return BitString._raw(n, words, _popcount(words))


def log_binomial(n: int, k: int) -> float:
    """log C(n, k) via lgamma; accurate to well under 1e-12 relative."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial arguments out of range: n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# a kernel build divides by the same C(n, ell) once per entry
_subsets = functools.lru_cache(maxsize=64)(math.comb)


def hypergeom_pmf(n: int, j: int, ell: int, a: int) -> float:
    """P[exactly ``a`` of ``ell`` positions sampled without replacement from
    n fall among a marked set of size ``j``]."""
    if not 0 <= j <= n:
        raise ValueError(f"marked count out of range: j={j}, n={n}")
    if not 0 <= ell <= n:
        raise ValueError(f"sample size out of range: ell={ell}, n={n}")
    if not max(0, ell - (n - j)) <= a <= min(j, ell):
        raise ValueError(f"overlap a={a} outside support for n={n}, j={j}, ell={ell}")
    # integer true division is correctly rounded, so kernel rows sum to 1
    # within a few ulps at any n
    return math.comb(j, a) * math.comb(n - j, ell - a) / _subsets(n, ell)

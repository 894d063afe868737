"""Bitstrings, keyed random streams, and counting primitives."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

_U64_MASK = (1 << 64) - 1
# the Philox counter every stream starts from; Philox copies it, so one
# read-only array serves them all
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False
# draws UniformNonOptimal makes before it gives up
_NONOPT_ATTEMPTS = 10_000


def _bits_at(n: int, pos: np.ndarray) -> int:
    """The bits of the length-n string whose ones are at ``pos``."""
    flags = np.zeros(n, dtype=np.uint8)
    flags[pos] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class BitString:
    """Fixed-length bit vector held as one non-negative int: bit i is position i.

    The number of set bits is counted once, at construction, so reading
    it stays O(1).  Instances are treated as immutable: operations return
    new strings rather than mutating in place.
    """

    __slots__ = ("n", "bits", "ones")

    def __init__(self, n: int, bits: int = 0):
        if n <= 0:
            raise ValueError("bitstring length must be positive")
        if bits < 0 or bits >> n:
            raise ValueError("bits beyond the string length must be zero")
        self.n = n
        self.bits = bits
        self.ones = bits.bit_count()

    @classmethod
    def from01(cls, bits: str) -> "BitString":
        """Build from a left-to-right 0/1 string; position 0 is the first char."""
        if not bits or not set(bits) <= {"0", "1"}:
            raise ValueError("expected a non-empty string over {0,1}")
        return cls(len(bits), int(bits[::-1], 2))

    @classmethod
    def from_indices(cls, n: int, idx: Iterable[int]) -> "BitString":
        if n <= 0:
            raise ValueError("bitstring length must be positive")
        pos = np.asarray(idx if isinstance(idx, np.ndarray) else list(idx), dtype=np.int64)
        # viewed as unsigned a negative index is huge, so one max() checks both ends
        if len(pos) and int(pos.view(np.uint64).max()) >= n:
            bad = pos[(pos < 0) | (pos >= n)][0]
            raise ValueError(f"index {bad} out of range for length {n}")
        x = cls(n, _bits_at(n, pos))
        if x.ones != len(pos):
            raise ValueError("indices must be pairwise distinct")
        return x

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def to01(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def complement(self) -> "BitString":
        return BitString(self.n, self.bits ^ ((1 << self.n) - 1))

    def unpacked(self) -> np.ndarray:
        """The n bits as a 0/1 uint8 array, position 0 first."""
        packed = np.frombuffer(self.bits.to_bytes((self.n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little")

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"BitString('{self.to01()}')"
        return f"BitString(n={self.n}, ones={self.ones})"


def flip_bits(x: BitString, idx: Iterable[int]) -> BitString:
    """Return a copy of ``x`` flipped exactly at the distinct positions ``idx``."""
    mask = 0
    for i in idx:
        i = int(i)
        if not 0 <= i < x.n:
            raise ValueError(f"index {i} out of range for length {x.n}")
        if mask >> i & 1:
            raise ValueError(f"duplicate flip index {i}")
        mask |= 1 << i
    return BitString(x.n, x.bits ^ mask)


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
        # an explicit zero counter is the default one without numpy's
        # Python-level conversion of counter=None (about 2 us a stream)
        return np.random.Generator(
            np.random.Philox(_key_seed_type()(key), counter=_ZERO_COUNTER)
        )


@functools.cache
def _key_seed_type() -> type:
    """A seed-sequence type whose state is a given Philox key.

    ``Philox(key=k)`` first builds a ``SeedSequence`` from OS entropy,
    which the key then overrides; seeded with an instance of this type,
    Philox reads ``k`` from ``generate_state(2, uint64)`` and returns the
    same stream as ``Philox(key=k)`` without touching the entropy source.
    The type is built on first use: its base class imports
    ``numpy.random``, which commands that draw nothing need not load.
    """

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != len(self.key) or np.dtype(dtype) != self.key.dtype:
                raise ValueError(
                    f"a Philox key holds {len(self.key)} {self.key.dtype} words, "
                    f"not {n_words} {np.dtype(dtype)} words"
                )
            return self.key

    return PhiloxKey


def rejection_regime(n: int, ell: int) -> bool:
    """Whether ``ell``-subsets of [0..n-1] are drawn by rejection: ``ell``
    is tiny next to ``n``, so a draw is O(ell) and rarely repeats."""
    return ell <= n // 64


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
    if rejection_regime(n, ell):
        row = _rejection_rows(n, ell, rng, 1)[0]
    else:
        row = _shuffle_prefix(n, rng.integers(np.arange(ell), n).tolist())
    return np.asarray(row, dtype=np.int64)


def _rejection_rows(n: int, ell: int, rng: np.random.Generator, k: int) -> list[list[int]]:
    """k consecutive rejection draws of ``ell`` distinct indices from [0..n-1].

    One draw reads ``integers(0, n, size=2 * need)`` per attempt and keeps
    the first ``ell`` distinct values; the rest of the attempt is spent.
    Consecutive ``integers(0, n)`` calls read the stream as one call of
    their total size does, so the k draws are replayed over one buffer.
    Their first attempts alone read ``2 * ell * k`` values, so the buffer
    never reaches past what the k draws read; a short attempt tops it up
    by what the draws still due read at least.
    """
    width = 2 * ell
    buf = rng.integers(0, n, size=width * k).tolist()
    rows = []
    pos = 0
    for left in range(k - 1, -1, -1):
        row = buf[pos : pos + ell]
        if pos + width <= len(buf) and len(set(row)) == ell:
            # the first attempt is buffered and its first ell values are
            # distinct: the draw keeps exactly them
            rows.append(row)
            pos += width
            continue
        chosen: set[int] = set()
        row = []
        need = ell
        while need:
            end = pos + 2 * need
            if end > len(buf):
                buf += rng.integers(0, n, size=end - len(buf) + width * left).tolist()
            for i in buf[pos:end]:
                if i not in chosen:
                    chosen.add(i)
                    row.append(i)
                    if len(row) == ell:
                        break
            pos = end
            need = ell - len(row)
        rows.append(row)
    return rows


def _shuffle_prefix(n: int, js: list[int]) -> list[int]:
    """The first ``len(js)`` entries of range(n) after swapping i with js[i]
    at each step i of a partial Fisher-Yates shuffle."""
    if n > 8 * len(js):
        # few positions move: keep only theirs instead of all n (the dict
        # and the list ran even at n = 8 * ell; ell=50 of n=100 took 5.8 us
        # on the dict, 3.3 us on the list)
        moved: dict[int, int] = {}
        out = []
        for i, j in enumerate(js):
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return out
    idx = list(range(n))
    for i, j in enumerate(js):
        idx[i], idx[j] = idx[j], idx[i]
    return idx[: len(js)]


def _sample_subsets(n: int, ell: int, rng: np.random.Generator, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"batch size must be at least 1, got {k}")
    if rejection_regime(n, ell):
        return np.array(_rejection_rows(n, ell, rng, k), dtype=np.int64)
    if k == 1:
        # a one-row lockstep shuffle is slower than the scalar one
        return sample_uniform_subset(n, ell, rng)[None]
    # one integers() call over the tiled bounds consumes the stream exactly
    # as k calls over np.arange(ell) do, so the k shuffles run in lockstep
    # on one flat index array.  Step i never touches position i again, so
    # it only reads each row's target (the row's i-th entry) and moves the
    # value at position i there.
    js = rng.integers(np.arange(k * ell) % ell, n).reshape(k, ell)
    base = np.arange(0, k * n, n)
    targets = np.ascontiguousarray(js.T)
    targets += base
    here = np.arange(ell)[:, None] + base
    idx = np.arange(k * n)
    out = np.empty((ell, k), dtype=np.int64)
    for t, h, o in zip(targets, here, out):
        o[...] = idx[t]
        idx[t] = idx[h]
    out -= base
    return out.T


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

    def checked(self, n: int) -> int:
        """The ones count, after checking that it fits a string of length ``n``."""
        if not 0 <= self.ones <= n:
            raise ValueError(f"ones count {self.ones} exceeds length {n}")
        return self.ones


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
        j = dist.checked(n)
        if j in (0, n):
            # the only string with j ones: nothing is drawn from the stream
            return BitString.from_indices(n, range(j))
        # the subset is distinct and in range, so it needs no re-check
        return BitString(n, _bits_at(n, sample_uniform_subset(n, j, rng)))
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
    n_words = (n + 63) // 64
    # the words ``rng.bytes(8 * n_words)`` draws, without its byte copies.
    # It reads 32 bits at a time; Philox hands out the low half of each
    # 64-bit stream word first, so with no half word buffered (as at every
    # run's first draw) it reads exactly the next n_words raw stream words.
    # Any other bit generator keeps the 32-bit draw: MT19937's raw words
    # are 32 bits wide and its state holds no buffered half
    bit_gen = rng.bit_generator
    if isinstance(bit_gen, np.random.Philox) and not bit_gen.state["has_uint32"]:
        words = bit_gen.random_raw(n_words)
    else:
        words = rng.integers(0, 2**32, size=2 * n_words, dtype=np.uint32)
    return BitString(n, int.from_bytes(words.tobytes(), "little") & ((1 << n) - 1))


def log_binomial(n: int, k: int) -> float:
    """log C(n, k) via lgamma; accurate to well under 1e-12 relative."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial arguments out of range: n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def overlap_support(n: int, j: int, ell: int) -> range:
    """Overlaps an ell-subset of n positions can have with a marked set of size j."""
    return range(max(0, ell - (n - j)), min(j, ell) + 1)


def hypergeom_pmf(n: int, j: int, ell: int) -> list[float]:
    """P[exactly a of ``ell`` positions sampled without replacement from n
    fall among a marked set of size ``j``], for each a in ``overlap_support``."""
    if not 0 <= j <= n:
        raise ValueError(f"marked count out of range: j={j}, n={n}")
    if not 0 <= ell <= n:
        raise ValueError(f"sample size out of range: ell={ell}, n={n}")
    support = overlap_support(n, j, ell)
    m, b = n - j, ell - support.start
    hits, misses, total = math.comb(j, support.start), math.comb(m, b), math.comb(n, ell)
    row = []
    for a in support:
        # integer true division is correctly rounded, so kernel rows sum to 1
        # within a few ulps at any n
        row.append(hits * misses / total)
        hits, misses, b = hits * (j - a) // (a + 1), misses * b // (m - b + 1), b - 1
    return row

"""Bitstrings, keyed random streams, and counting primitives."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

_U64_MASK = (1 << 64) - 1
# a zero counter or buffer as reset_stream hands it to the Philox state
# setter, which reads each entry: a tuple of ints costs it about 1 us less
# than an array
_ZERO_WORDS = (0, 0, 0, 0)
# a view as this dtype object costs less than one as np.uint32
_U32 = np.dtype(np.uint32)
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
        _check_key(self.master_seed, self.stream_index)

    def generator(self) -> np.random.Generator:
        """A new generator at the start of this stream."""
        # the seed is a placeholder, since reset sets the whole state; unlike
        # Philox(key=...), Philox(0) first reads no OS entropy
        rng = np.random.Generator(np.random.Philox(0))
        self.reset(rng)
        return rng

    def reset(self, rng: np.random.Generator) -> None:
        """Put ``rng``, a Philox generator, at the start of this stream
        (see ``reset_stream``)."""
        reset_stream(rng, self.master_seed, self.stream_index)


def _check_key(master_seed: int, stream_index: int) -> None:
    if not 0 <= master_seed <= _U64_MASK:
        raise ValueError(f"seed must lie in [0, 2**64), got {master_seed}")
    if not 0 <= stream_index <= _U64_MASK:
        raise ValueError(f"stream_index must lie in [0, 2**64), got {stream_index}")


def reset_stream(rng: np.random.Generator, master_seed: int, stream_index: int) -> None:
    """Put ``rng``, a Philox generator, at the start of stream
    (``master_seed``, ``stream_index``): it then draws what
    ``Generator(Philox(key=[master_seed, stream_index]))`` draws.

    This checks the key as ``RngStream`` does and sets the whole Philox
    state as a new one holds it: a zero counter, the key, an empty buffer
    and no buffered half word.  That costs about a tenth of building a
    new generator, and builds no ``RngStream``.
    """
    _check_key(master_seed, stream_index)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (master_seed, stream_index)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


class Draws:
    """A generator whose bounded draws are read from raw Philox words.

    ``Generator.integers(lo, n)`` below 2**32 makes each value from 32-bit
    draws by Lemire's rule, and ``below`` and ``rows`` return what it
    returns, and leave the stream as it leaves it, but read whole words
    with ``random_raw`` (see ``u32``) and apply the rule to them in numpy.
    For that it must know whether a half word is buffered; ``buffered``
    records it (None while unknown), so once this object is made every
    draw from ``rng`` goes through it, or sets ``buffered`` to None.  Any
    other bit generator, or a big-endian host, draws through ``integers``.
    """

    __slots__ = ("rng", "buffered", "_raw")

    def __init__(self, rng: np.random.Generator, *, buffered: Optional[bool]):
        self.rng = rng
        self.buffered = buffered
        self._raw = _raw_reader(rng)

    def below(self, n: int, k: int) -> np.ndarray:
        """``rng.integers(0, n, size=k)`` as uint32 (uint64 above 2**32):
        k values uniform on [0, n), from the stream's next draws.

        This is ``rows`` at one bound, kept 1-D and free of column offsets:
        one product and one reduction over its low halves, which find a
        draw to redraw in about (2**32 % n) / 2**32 of the draws.
        """
        if self._raw is None or n > 2**32:
            # numpy draws, by another rule above 2**32, and leaves the half
            # word to be read from the state when a raw draw next needs it
            self.buffered = None
            return self.rng.integers(0, n, size=k, dtype=_U32 if n <= 2**32 else np.uint64)
        if n == 1 or not k:
            # numpy draws nothing for a range of one value or an empty size
            return np.zeros(k, dtype=_U32)
        span, floor = _lemire_bound(n)
        # Lemire, as in rows: the high half of u * n, redrawn while the low
        # half falls below (2**32 - n) % n
        u = self.u32(k)
        halves = (u * span).view(_U32)
        out = halves[1::2]
        if floor and np.minimum.reduce(halves[::2]) < floor:
            at = int((halves[::2] < floor).argmax())
            return self._redraw(n, 1, out, at, u[at + 1 :])
        return out

    def rows(self, n: int, m: int, k: int) -> np.ndarray:
        """``rng.integers(np.arange(k * m) % m, n).reshape(k, m)``: row r's
        column i is uniform on [i, n), from the stream's next draws."""
        if m == 1:
            # at one bound the per-column path below costs more than below
            # does (256 values, listed: 8.7 us against 5.9 us, and 7.1 us
            # through integers)
            return self.below(n, k).astype(np.int64).reshape(k, 1)
        if self._raw is None or n > 2**32:
            # above 2**32 numpy draws by another rule; it leaves the half
            # word to be read from the state when a raw draw next needs it
            self.buffered = None
            return self.rng.integers(np.arange(k * m) % m, n).reshape(k, m)
        if m == n:
            # the last column's range holds the one value n - 1, and numpy
            # draws nothing for it
            out = np.empty((k, m), dtype=np.int64)
            out[:, :-1] = self.rows(n, m - 1, k)
            out[:, -1] = n - 1
            return out
        lo, span, floor = _lemire_bounds(n, m)
        u = self.u32(k * m)
        # Lemire: the value is lo + (u * span >> 32), redrawn while the low
        # half of u * span falls below (2**32 - span) % span
        halves = (u.reshape(k, m) * span).view(_U32)
        redraw = halves[:, ::2] < floor
        out = halves[:, 1::2] + lo
        if redraw.any():
            at = int(redraw.argmax())
            return self._redraw(n, m, out.reshape(-1), at, u[at + 1 :]).reshape(k, m)
        return out

    def _redraw(self, n: int, m: int, out: np.ndarray, at: int, spare: np.ndarray) -> np.ndarray:
        """Finish the flat values ``out[at:]``, the first of which was
        rejected: it takes the next draw, and each later value the draw
        one further on.  ``spare`` holds the draws read and not yet used;
        only the shortfall is read from the stream, so every draw read is
        one numpy reads too."""
        lo, span, floor = _lemire_bounds(n, m)
        while True:
            need = len(out) - at
            pool = np.concatenate((spare, self.u32(need - len(spare))))
            cols = np.arange(at, len(out)) % m
            halves = (pool * span[cols]).view(_U32)
            redraw = halves[::2] < floor[cols]
            stop = int(redraw.argmax()) if redraw.any() else need
            out[at : at + stop] = halves[1 : 2 * stop : 2] + lo[cols[:stop]]
            if stop == need:
                return out
            at += stop
            spare = pool[stop + 1 :]

    def u32(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit draws ``next_uint32`` would return.

        Philox serves a 32-bit draw from the low half of a 64-bit stream
        word first and keeps the high half buffered in its state for the
        next one.  Whole words come from ``random_raw``.  A buffered half
        word comes first, and an odd last draw leaves the high half of its
        word buffered; both are drawn through numpy, which keeps the
        buffer.  While ``buffered`` is None it is learnt from a read of
        ``state`` (about 3.5 us: a dict of three new arrays).  Without a
        raw reader every draw goes through numpy.
        """
        rng, raw = self.rng, self._raw
        if raw is None:
            self.buffered = None
            return rng.integers(0, 2**32, size=count, dtype=np.uint32)
        buffered = self.buffered
        if buffered is None:
            buffered = bool(rng.bit_generator.state["has_uint32"])
        if not buffered and not count & 1:
            self.buffered = False
            return raw(count >> 1).view(_U32)
        u = np.empty(count, dtype=_U32)
        head = 0
        if buffered and count:
            # integers(2**32) is one 32-bit draw
            u[0] = rng.integers(2**32)
            head, buffered = 1, False
        words = (count - head) >> 1
        if words:
            u[head : head + 2 * words] = raw(words).view(_U32)
        if (count - head) & 1:
            u[-1] = rng.integers(2**32)
            buffered = True
        self.buffered = buffered
        return u


def _raw_reader(rng: np.random.Generator):
    """``rng``'s ``random_raw`` if its 32-bit draws are the halves of its
    raw words, low half first, else None.  Philox's are; a word viewed as
    two 32-bit halves lists its low half first only on a little-endian
    host, and MT19937's raw words are 32 bits wide."""
    bit_gen = rng.bit_generator
    if isinstance(bit_gen, np.random.Philox) and sys.byteorder == "little":
        return bit_gen.random_raw
    return None


@functools.lru_cache(maxsize=64)
def _lemire_bound(n: int) -> tuple[np.uint64, int]:
    """``_lemire_bounds`` at one bound: the span n, as a uint64 scalar
    (building one costs more than the product it enters), and its
    threshold."""
    return np.uint64(n), (2**32 - n) % n


@functools.lru_cache(maxsize=64)
def _lemire_bounds(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column i < m of ``Draws.rows``: the offset i, the span n - i,
    and the threshold (2**32 - span) % span below which a draw is redrawn."""
    lo = np.arange(m, dtype=np.int64)
    span = (n - lo).astype(np.uint64)
    floor = ((2**32 - span) % span).astype(np.uint32)
    for a in (lo, span, floor):
        a.flags.writeable = False
    return lo, span, floor


def rejection_regime(n: int, ell: int) -> bool:
    """Whether ``ell``-subsets of [0..n-1] are drawn by rejection: ``ell``
    is tiny next to ``n``, so a draw is O(ell) and rarely repeats."""
    return ell <= n // 64


def sample_uniform_subset(
    n: int, ell: int, rng: np.random.Generator | Draws, size: Optional[int] = None
) -> np.ndarray:
    """Draw ``ell`` distinct indices from [0..n-1], uniform over all subsets.

    Rejection sampling is used when ``ell`` is tiny relative to ``n`` and a
    partial Fisher-Yates shuffle otherwise, keeping the expected cost
    O(ell) in both regimes.

    With ``size=k`` the result is a ``(k, ell)`` array whose row i is the
    i-th of k consecutive single draws, and ``rng`` is left in the same
    state those k draws leave it in.  A bare generator is drawn from
    through a ``Draws`` that learns its half word from the state; one
    passed in reads the same values from raw stream words.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"subset size must lie in [1..n]; got ell={ell}, n={n}")
    draws = rng if isinstance(rng, Draws) else Draws(rng, buffered=None)
    if size is None:
        return _sample_subsets(n, ell, draws, 1)[0]
    return _sample_subsets(n, ell, draws, size)


def _rejection_rows(n: int, ell: int, draws: Draws, k: int) -> list[list[int]]:
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
    buf = draws.below(n, width * k).tolist()
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
                top_up = end - len(buf) + width * left
                buf += draws.below(n, top_up).tolist()
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


def _sample_subsets(n: int, ell: int, draws: Draws, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"batch size must be at least 1, got {k}")
    if rejection_regime(n, ell):
        return np.array(_rejection_rows(n, ell, draws, k), dtype=np.int64)
    # one draw of k rows of targets consumes the stream exactly as k
    # single draws of one row do
    js = draws.rows(n, ell, k)
    if k <= 2:
        # a lockstep shuffle of one or two rows is slower than scalar ones
        return np.array([_shuffle_prefix(n, row) for row in js.tolist()], dtype=np.int64)
    # the k shuffles run in lockstep on one flat copy of the frame, row r's
    # positions at r * n.  Step i never touches position i again, so it
    # only reads each row's target (the row's i-th entry) and moves the
    # position at i there.
    base, here, frame = _lockstep_frame(n, ell, k)
    targets = np.add(js.T, base, out=np.empty((ell, k), dtype=np.int64))
    idx = frame.copy()
    out = np.empty((ell, k), dtype=np.int64)
    for t, h, o in zip(targets, here, out):
        o[...] = idx[t]
        idx[t] = idx[h]
    return out.T


@functools.lru_cache(maxsize=8)
def _lockstep_frame(n: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a lockstep batch of k shuffles of m steps over n positions
    reads, read-only: the row offsets r * n, the flat index of step i's
    position in every row (i + r * n, one row per step), and the frame,
    range(n) k times over in the narrowest unsigned dtype that holds
    n - 1 (uint8 up to n = 256).  A run's batches cycle through at most
    about five (m, k), so eight entries keep a run's frames alive; none
    is larger than an int64 index array of the batch."""
    base = np.arange(0, k * n, n)
    here = np.arange(m)[:, None] + base
    frame = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), k)
    for a in (base, here, frame):
        a.flags.writeable = False
    return base, here, frame


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

    def checked(self, n: int) -> BitString:
        """The string, after checking its characters and that its length is ``n``."""
        x = BitString.from01(self.bits)
        if x.n != n:
            raise ValueError(f"point has length {x.n}, expected {n}")
        return x


@dataclass(frozen=True)
class UniformNonOptimal(InitDistribution):
    """Uniform conditioned on not being optimal, by rejection sampling."""

    fitness: object

    def checked(self, n: int):
        """The objective, after checking its length and that not every level is optimal."""
        fit = self.fitness
        if fit.n != n:
            raise ValueError(f"the init's objective has length {fit.n}, expected {n}")
        if fit.level_symmetric and all(fit.optimal_levels):
            # the rejection sampler would draw in vain until it gives up
            raise ValueError("every level is optimal: no non-optimal start exists")
        return fit


def sample_bitstring(
    n: int, dist: InitDistribution, rng: np.random.Generator | Draws
) -> BitString:
    """Draw one bitstring of length ``n`` from the given distribution.

    A bare generator is drawn from through a ``Draws``, as in
    ``sample_uniform_subset``."""
    draws = rng if isinstance(rng, Draws) else Draws(rng, buffered=None)
    if isinstance(dist, Uniform):
        return _sample_uniform(n, draws)
    if isinstance(dist, FixedOnes):
        j = dist.checked(n)
        if j in (0, n):
            # the only string with j ones: nothing is drawn from the stream
            return BitString.from_indices(n, range(j))
        # the subset is distinct and in range, so it needs no re-check
        return BitString(n, _bits_at(n, sample_uniform_subset(n, j, draws)))
    if isinstance(dist, Point):
        return dist.checked(n)
    if isinstance(dist, UniformNonOptimal):
        fit = dist.fitness
        for _ in range(_NONOPT_ATTEMPTS):
            # an even count of 32-bit draws leaves the half word as it was
            x = _sample_uniform(n, draws)
            if fit.value(x) < fit.max_value:
                return x
        raise RuntimeError(
            f"no non-optimal string found in {_NONOPT_ATTEMPTS} attempts; "
            "the function may be optimal almost everywhere"
        )
    raise ValueError(f"unknown initialization distribution {dist!r}")


def _sample_uniform(n: int, draws: Draws) -> BitString:
    # the words ``rng.bytes(8 * n_words)`` draws, without its byte copies:
    # 2 * n_words 32-bit draws
    n_words = (n + 63) // 64
    if draws.buffered is False and draws._raw is not None:
        # with no half word buffered they are the next n_words raw words,
        # as u32 reads them; reading them here saves a run's start the
        # call and the view
        u = draws._raw(n_words)
    else:
        u = draws.u32(2 * n_words)
    return BitString(n, int.from_bytes(u.tobytes(), "little") & ((1 << n) - 1))


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

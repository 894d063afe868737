"""Exact level-chain oracles: hitting times, drift verification, mutation monotonicity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import theory
from .core import FixedOnes, InitDistribution, Point, Uniform, UniformNonOptimal
from .core import hypergeom_pmf, overlap_support
from .fitness import FitnessFunction, MajorityFitness, PlateauFitness

# band entries (n + 1)(2 ell + 1) of rlsl_kernel's largest kernel (every n <= 4096
# at every ell <= n), and the (n + 1)**2 comparisons of compliance_check (n <= 5792)
BAND_LIMIT = 4097 * 8193
# relative tolerance of the drift floors
DRIFT_TOL = 1e-9
_ROW_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
# half-widths up to this eliminate on Python floats, where a level costs
# less than its numpy calls; numpy's add.reduce sums a row of at most 7
# entries left to right, so both loops give the same bits there
_LIST_WIDTH = 7
# levels rlsl_kernel and kernel_hitting_times set up, and the list
# elimination moves to lists, at a time; no block size changes a bit
_SETUP_ROWS = 1024
# significand bits past the leading one of a long double; overlap_rows
# divides in long double only when it is x87 extended (63), whose division
# rounds correctly and runs in hardware
_LONG_MANT = np.finfo(np.longdouble).nmant
# fewest levels overlap_rows builds from binomial columns: the columns cost
# about 20 + 3 ell us a call, the per-row loop 1.5-6 us a row, and the two
# meet at 8-16 rows (n = 32, 256 and 4096, ell 1-10)
_TABLE_ROWS = 16


def _single_flip_chain(n: int, lo: int, hi: int, tie: bool) -> KernelChain:
    """Width-1 kernel of single-bit flips on ones counts lo..hi, indexed from lo.

    Level m rises with probability (n - m)/n and falls with m/n, any
    leftover is a self-loop, and hi is absorbing.  With ``tie`` the first
    level is a balanced majority count, which every flip raises.
    """
    m = np.arange(lo, hi, dtype=float)
    band = np.zeros((hi - lo + 1, 3))
    down, stay, up = band[:-1].T
    up[:], down[:] = (n - m) / n, m / n
    if tie:
        up[0], down[0] = 1.0, 0.0
    stay[:] = 1.0 - up - down
    band[-1, 1] = 1.0
    return KernelChain.from_band(band, {hi - lo})


def plateau_chain(n: int, r: int) -> KernelChain:
    """Majority-count walk of single-bit local search on the two-sided plateau.

    Level s is the majority count n/2 + s.  From the balanced level every
    flip breaks the tie upward; above it the leading count grows only when
    one of the n - m minority bits is flipped, so up(m) = (n - m)/n and
    down(m) = m/n.  The level n/2 + r is absorbing.
    """
    theory._check_params(n, r)
    return _single_flip_chain(n, n // 2, n // 2 + r, tie=True)


def majority_chain(n: int, r: int) -> KernelChain:
    """Ones-count walk of single-bit local search on the one-sided objective.

    Every sub-threshold level accepts every move, so up(j) = (n - j)/n and
    down(j) = j/n on [0..n/2+r], with the threshold level absorbing.
    r=0 gives the walk used to recover a majority of ones.
    """
    theory._check_params(n, r, min_r=0)
    return _single_flip_chain(n, 0, n // 2 + r, tie=False)


def bd_hitting_times(kernel: KernelChain) -> np.ndarray:
    """Expected absorption times for a width-1 kernel absorbing in a top block.

    Uses the ladder recurrence t(s) = (1 + down(s) t(s-1)) / up(s) for the
    expected passage time from level s to s+1 and accumulates it with
    compensated (Kahan) summation; overflow degrades to +inf rather than
    raising.
    """
    if kernel.width != 1:
        raise ValueError(f"the ladder solver needs a width-1 kernel, got width {kernel.width}")
    size = kernel.size
    target = min(kernel.absorbing, default=size)
    if target == size or kernel.absorbing != frozenset(range(target, size)):
        raise ValueError("solver requires a contiguous top block of absorbing states")
    # read and written as Python floats through memoryviews, with no numpy
    # scalar and no per-level list; ``times`` holds the passage times until
    # the compensated sum overwrites them from the top
    down, up = memoryview(kernel.band[:, 0]), memoryview(kernel.band[:, 2])
    times = np.zeros(size)
    ladder = memoryview(times)
    passage = 0.0
    for s in range(target):
        if up[s] <= 0.0:
            raise ValueError(f"no absorbing state reachable from level {s}")
        passage = (1.0 + down[s] * passage) / up[s]
        ladder[s] = passage
    total = 0.0
    carry = 0.0
    for s in range(target - 1, -1, -1):
        step = ladder[s]
        if math.isinf(step) or math.isinf(total):
            total = math.inf
        else:
            y = step - carry
            t = total + y
            carry = (t - total) - y
            total = t
        ladder[s] = total
    return times


class KernelChain:
    """Row-stochastic transition matrix over ones-count levels, stored as a band.

    ``band[s, width + d]`` holds P[s, s + d] for |d| <= width; positions
    past either end of the level range hold zero.  ``from_band`` checks a
    band and builds the chain on it.
    """

    @classmethod
    def from_band(cls, band: np.ndarray, absorbing: Iterable[int]) -> KernelChain:
        band = np.asarray(band, dtype=float)
        if band.ndim != 2 or band.shape[1] % 2 == 0:
            raise ValueError("band must have 2 * width + 1 columns")
        size, width = band.shape[0], band.shape[1] // 2
        # only the first and last width rows have positions past either end
        head = min(width, size)
        edges = np.r_[0:head, max(head, size - width) : size]
        outside = _band_columns(edges, width, size) < 0
        if np.any(band[edges][outside] != 0.0):
            raise ValueError("band entries past the level range must be zero")
        if np.any(band < -_ROW_TOL):
            raise ValueError("transition probabilities must be nonnegative")
        rowsum = band.sum(axis=1)
        rowsum -= 1.0
        if np.max(np.abs(rowsum, out=rowsum)) > _ROW_TOL:
            raise ValueError("every row must sum to 1 within 1e-12")
        absorbing = frozenset(absorbing)
        for s in absorbing:
            if not 0 <= s < size:
                raise ValueError(f"absorbing state {s} out of range")
        states = sorted(absorbing)
        bad = np.flatnonzero(band[states, width] != 1.0)
        if bad.size:
            raise ValueError(f"absorbing state {states[bad[0]]} must be a unit self-loop")
        kernel = cls()
        kernel.band, kernel.width, kernel.absorbing = band, width, absorbing
        return kernel

    @property
    def size(self) -> int:
        return self.band.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense transition matrix, built afresh on each access; for tests and the benchmark."""
        size, width = self.size, self.width
        P = np.zeros((size, size))
        for d in range(-width, width + 1):
            rows = np.arange(max(0, -d), size - max(0, d))
            P[rows, rows + d] = self.band[rows, width + d]
        return P


def _band_columns(rows: np.ndarray, width: int, size: int) -> np.ndarray:
    """Level reached by each band position of ``rows``; -1 past either end."""
    cols = rows[:, None] + np.arange(-width, width + 1)
    return np.where((cols >= 0) & (cols < size), cols, -1)


def rlsl_kernel(
    n: int,
    ell: int,
    fitness_by_level: Callable[[int], float],
    absorbing: Optional[Iterable[int]] = None,
) -> KernelChain:
    """Exact accept/reject kernel on ones-count levels for exact-ell-bit flips.

    The overlap a between the flipped set and the current 1-positions is
    hypergeometric and moves level j to j + ell - 2a; proposals with
    fitness_by_level(new) < fitness_by_level(current) fold back into the
    diagonal.  By default the argmax levels are absorbing.  The band has
    half-width ell and at most BAND_LIMIT entries.
    """
    _check_flip(n, ell)
    entries = (n + 1) * (2 * ell + 1)
    if entries > BAND_LIMIT:
        raise ValueError(f"{entries} band entries exceed the band limit {BAND_LIMIT}")
    values = [fitness_by_level(j) for j in range(n + 1)]
    if absorbing is None:
        top = max(values)
        absorbing = {j for j, v in enumerate(values) if v == top}
    absorbing = frozenset(absorbing)
    trans = np.array([j for j in range(n + 1) if j not in absorbing], dtype=np.intp)
    band = np.zeros((n + 1, 2 * ell + 1))
    # the absorbing rows' unit self-loops; transient diagonals follow below
    band[:, ell] = 1.0
    levels = np.array(values)
    shifts = np.arange(ell, -ell - 1, -2)
    # the transient levels of _SETUP_ROWS levels at a time, so that no array
    # but the band grows with n
    first = 0
    for end in range(_SETUP_ROWS, n + 1 + _SETUP_ROWS, _SETUP_ROWS):
        last = int(trans.searchsorted(end))
        at, first = trans[first:last], last
        if not at.size:
            continue
        overlaps = overlap_rows(n, ell, at)
        # overlap a moves level j to j + ell - 2a, band column 2 (ell - a), so
        # the even columns reversed follow a.  Off the support the probability
        # is 0, and the value read at the level clipped into range does not matter
        reached = np.clip(at[:, None] + shifts, 0, n)
        moved = levels[reached] >= levels[at, None]
        if ell % 2 == 0:
            moved[:, ell // 2] = False  # a = ell/2 keeps the level
        band[at, ::2] = np.where(moved, overlaps, 0.0)[:, ::-1]
        # the diagonal adds the rejected and kept mass in overlap order, as a
        # row-by-row fold does; the zeros in between change no bit
        band[at, ell] = np.add.accumulate(np.where(moved, 0.0, overlaps), axis=1)[:, -1]
    return KernelChain.from_band(band, absorbing)


def overlap_rows(n: int, ell: int, levels: Sequence[int]) -> np.ndarray:
    """Overlap law of an ell-bit flip at each of ``levels``, padded to ell + 1 columns.

    Entry [i, a] is the probability that the flip hits a ones of level
    levels[i], the correctly rounded quotient C(j, a) C(n - j, ell - a) /
    C(n, ell) that ``hypergeom_pmf`` gives; overlaps off the support hold 0.
    When there are at least ``_TABLE_ROWS`` levels, every binomial fits in
    int64 and the long double is x87 extended, the numerators are exact
    int64 products and one long-double division per call rounds them to 64
    bits, then a cast rounds again to float64.  Rounding twice can only go
    wrong where the long double lands on a float64 midpoint: the midpoints
    are long doubles, so a quotient stays on its side of every midpoint it
    does not land on (Figueroa 1995).  Entries on a midpoint are divided
    again as Python ints.  Every other case builds the rows one at a time
    with ``hypergeom_pmf``, which is also faster for fewer levels.  The
    binomial columns span the levels' range,
    2 (ell + 1) (max - min + 1) int64 entries.
    """
    levels = np.asarray(levels, dtype=np.intp)
    if (
        levels.size >= _TABLE_ROWS
        and math.comb(n, min(ell, n // 2)) < 2**63
        and _LONG_MANT == 63
    ):
        lo, hi = int(levels.min()), int(levels.max())
        # C(x, a) from x = lo for the hits and from x = n - hi for the
        # misses, where n - j sits at hi - j
        cols = _binomial_columns((lo, n - hi), hi - lo + 1, ell)
        # counts[a, i] = C(j, a) C(n - j, ell - a) for j = levels[i]
        counts = cols[:, 0, levels - lo] * cols[::-1, 1, hi - levels]
        total = math.comb(n, ell)
        exact = counts.astype(np.longdouble) / np.int64(total)
        out = exact.astype(float)
        # a midpoint lies half an ulp of out from it, a power of two; the
        # few other entries as far from out as a power of two are divided
        # again as well, which changes none of them
        gap, _ = np.frexp((exact - out).astype(float))
        again = np.flatnonzero(np.abs(gap) == 0.5)
        out.flat[again] = [c / total for c in counts.flat[again].tolist()]
        return out.T
    out = np.zeros((levels.size, ell + 1))
    for i, j in enumerate(levels.tolist()):
        start = overlap_support(n, j, ell).start
        row = hypergeom_pmf(n, j, ell)
        out[i, start : start + len(row)] = row
    return out


def _binomial_columns(starts: tuple[int, ...], width: int, depth: int) -> np.ndarray:
    """Exact int64 C(x, a) at [a, k, x - starts[k]] for a in 0..depth and x
    in starts[k]..starts[k] + width - 1.

    Row a is C(start, a) plus the running sum of row a - 1, by Pascal's
    rule C(x + 1, a) = C(x, a) + C(x, a - 1); every partial sum is itself
    a binomial, so nothing overflows when the largest one fits.
    """
    cols = np.empty((depth + 1, len(starts), width), dtype=np.int64)
    cols[:, :, 0] = [[math.comb(x, a) for x in starts] for a in range(depth + 1)]
    cols[0] = 1
    for a in range(1, depth + 1):
        row = cols[a]
        row[:, 1:] = cols[a - 1, :, :-1]
        row.cumsum(axis=1, out=row)
    return cols


def _check_flip(n: int, ell: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got n={n}")
    if not 1 <= ell <= n:
        raise ValueError(f"ell must lie in [1..n], got ell={ell}, n={n}")


def trapped_level(
    n: int, ell: int, fitness_by_level: Callable[[int], float], starts: Iterable[int]
) -> Optional[int]:
    """A level reachable from ``starts`` with no accepted path to an optimum, or None.

    Edges are the kernel's support restricted to accepted proposals
    (j -> j + ell - 2a with value(new) >= value(j)); the optima are the
    argmax levels.  The support is symmetric, so the levels that can reach
    an optimum are found by a backward search from the optima over the
    same ranges.  O(n ell) time.

    An exact-ell-bit flip moves level j to j + ell - 2a for each overlap a
    in ``overlap_support(n, j, ell)``: every other level from |j - ell| to
    min(j + ell, 2n - j - ell).
    """
    _check_flip(n, ell)
    values = [fitness_by_level(j) for j in range(n + 1)]
    top = max(values)
    escapes = [v == top for v in values]
    stack = [j for j in range(n + 1) if escapes[j]]
    left = n + 1 - len(stack)
    while stack and left:
        t = stack.pop()
        vt = values[t]
        for s in range(abs(t - ell), min(t + ell, 2 * n - t - ell) + 1, 2):
            if not escapes[s] and values[s] <= vt:
                escapes[s] = True
                left -= 1
                stack.append(s)
    if not left:
        return None
    seen = set()
    stack = [j for j in starts if 0 <= j <= n]
    while stack:
        j = stack.pop()
        if j in seen:
            continue
        if not escapes[j]:
            return j
        seen.add(j)
        vj = values[j]
        reach = range(abs(j - ell), min(j + ell, 2 * n - j - ell) + 1, 2)
        stack.extend(t for t in reach if values[t] >= vj and t not in seen)
    return None


def kernel_hitting_times(kernel: KernelChain) -> np.ndarray:
    """Expected absorption times for every level of a banded kernel.

    Solves (I - Q) E = 1 on the transient block by state-reduction
    Gaussian elimination (Grassmann, Taksar & Heyman 1985) in which every
    pivot is accumulated as a sum of leaving probabilities, never as
    1 - P[z, z]; all intermediate quantities stay nonnegative, which keeps
    componentwise relative accuracy even when expectations span hundreds
    of orders of magnitude.  Eliminating the highest remaining level only
    updates the levels within the half-width w below it, so the band never
    fills in: O(m w^2) time and O(m w) memory for m transient levels.  The
    computed vector is verified against the residual contract
    max|(I - Q) E - 1| <= 1e-9 (1 + max E) on the kernel's own band.

    A pivot of zero means absorption is unreachable from its level, or
    that its leaving mass underflowed.  Either, like an expectation that
    overflows, makes the expectation of every level that can reach the
    level +inf, and only of those: the other levels are solved again
    without them.
    """
    size, w = kernel.size, kernel.width
    trans = np.array([s for s in range(size) if s not in kernel.absorbing], dtype=np.intp)
    out = np.zeros(size)
    m = len(trans)
    if m == 0:
        return out
    # transient index of every band position of the transient rows; the
    # extra last slot maps positions past the range (-1) to -1 as well
    index = np.full(size + 1, -1)
    index[trans] = np.arange(m)
    # columns: visit cost, then leaving mass into absorbing levels
    rhs = np.ones((m, 2))
    # transient block in band form; its half-width is at most w
    band = np.zeros((m, 2 * w + 1))
    # _SETUP_ROWS rows at a time, so that no array but the band grows with
    # the number of levels times the width
    for lo in range(0, m, _SETUP_ROWS):
        levels = trans[lo : lo + _SETUP_ROWS]
        P = kernel.band[levels]
        target = index[_band_columns(levels, w, size)]
        rhs[lo : lo + len(levels), 1] = np.where(target < 0, P, 0.0).sum(axis=1)
        i, c = np.nonzero(target >= 0)
        band[lo + i, w + target[i, c] - lo - i] = P[i, c]
    # Q[i, k] = band[i, w + k - i] sits at flat index w + 2w i + k: a
    # strided (m, m) view whose |i - k| <= w entries are the band
    Q = np.lib.stride_tricks.as_strided(
        band.reshape(-1)[w:], shape=(m, m), strides=(2 * w * band.itemsize, band.itemsize)
    )
    E = np.empty(m)
    # an expectation past the float range comes out +inf, or nan (0 * inf)
    # where a level's window holds one it cannot reach; see below
    with np.errstate(over="ignore", invalid="ignore"):
        if w <= _LIST_WIDTH:
            unfolded = _eliminate_lists(band, rhs, w)
        else:
            unfolded = _eliminate_views(Q, rhs, w)
        visits = rhs[:, 0].tolist()
        _back_substitute(Q, visits, E, w, range(m))
    infinite = np.zeros(m, dtype=bool)
    if unfolded or not np.all(np.isfinite(E)):
        start = np.zeros(size, dtype=bool)
        start[trans[unfolded]] = True
        start[trans[np.isposinf(E)]] = True
        infinite = _reaching(kernel, start)[trans]
        # no other level has a band entry into these: with E = 0 there, a
        # second pass gives a nan its finite value and every finite value
        # its bits again
        E[infinite] = 0.0
        _back_substitute(Q, visits, E, w, np.flatnonzero(~infinite))
    out[trans] = E
    # (Q E)[s] over the kernel rows from the first transient level to the
    # last, read through a strided view of E padded with w zeros at either
    # end; absorbing levels hold E = 0
    first, stop = trans[0], trans[-1] + 1
    padded = np.zeros(stop - first + 2 * w)
    padded[w : w + stop - first] = out[first:stop]
    windows = np.ndarray(
        (stop - first, 2 * w + 1), buffer=padded, strides=(padded.itemsize,) * 2
    )
    QE = np.einsum("ij,ij->i", kernel.band[first:stop], windows)[trans - first]
    error = np.abs(E - QE - 1.0)
    error[infinite] = 0.0
    residual = float(np.max(error))
    if not residual <= _RESIDUAL_TOL * (1.0 + float(np.max(E))):
        raise ArithmeticError(f"solver residual {residual:g} violates the accuracy contract")
    out[trans[infinite]] = math.inf
    return out


def _back_substitute(
    Q: np.ndarray, visits: list[float], E: np.ndarray, w: int, levels: Iterable[int]
) -> None:
    """E[z] for each of ``levels`` in increasing order, from the levels below it."""
    for z in levels:
        lo = z - w if z > w else 0
        E[z] = visits[z] + float(Q[z, lo:z] @ E[lo:z])


def _reaching(kernel: KernelChain, start: np.ndarray) -> np.ndarray:
    """Mask of the levels with a path of positive band entries into a
    ``start`` level whose earlier levels are all transient."""
    band, w, size = kernel.band, kernel.width, kernel.size
    transient = np.ones(size, dtype=bool)
    transient[list(kernel.absorbing)] = False
    reach = start.copy()
    frontier = np.flatnonzero(start)
    # level s steps to s + c - w with probability band[s, c]
    cols = np.arange(2 * w + 1)
    while frontier.size:
        found = []
        # _SETUP_ROWS levels at a time, as in kernel_hitting_times
        for lo in range(0, frontier.size, _SETUP_ROWS):
            s = frontier[lo : lo + _SETUP_ROWS, None] + (w - cols)
            inside = (s >= 0) & (s < size)
            s, c = s[inside], np.broadcast_to(cols, inside.shape)[inside]
            s = s[transient[s] & ~reach[s] & (band[s, c] > 0.0)]
            reach[s] = True
            found.append(s)
        frontier = np.unique(np.concatenate(found))
    return reach


def _eliminate_views(Q: np.ndarray, rhs: np.ndarray, w: int) -> list[int]:
    """Eliminate levels m-1..0 of ``kernel_hitting_times`` through numpy views.

    Row z of ``Q`` and of ``rhs`` end up divided by the pivot, as the
    back-substitution reads them; every update writes in place.  Level 0
    has no row below it, so its pivot is its leaving mass.  A level
    whose pivot is zero, or whose expected visits overflow, is not folded
    into the levels below it; the list of those levels is returned.
    """
    unfolded = []
    for z in range(len(rhs) - 1, -1, -1):
        lo = z - w if z > w else 0
        row = Q[z, lo:z]
        ends = rhs[z]
        leave = np.add.reduce(row) + ends[1]
        if leave <= 0.0:
            unfolded.append(z)
            continue
        row /= leave
        ends /= leave
        if ends[0] == math.inf:
            # folding it would give a level below that cannot reach it
            # 0 * inf visits
            unfolded.append(z)
            continue
        col = Q[lo:z, z, None]
        block = Q[lo:z, lo:z]
        block += col * row
        below = rhs[lo:z]
        below += col * ends
    return unfolded


def _eliminate_lists(band: np.ndarray, rhs: np.ndarray, w: int) -> list[int]:
    """``_eliminate_views`` on Python floats, with the same operations in the same order.

    ``band`` holds Q[i, k] at column w + k - i.  A pivot row's entries are
    summed left to right, which is how numpy's add.reduce sums fewer than
    8 entries, so for w <= 7 both eliminations give the same bits.  The
    levels go to lists _SETUP_ROWS at a time, with the w below them that
    they update, so the lists stay small at any m.
    """
    unfolded = []
    for stop in range(len(band), 0, -_SETUP_ROWS):
        start = max(0, stop - _SETUP_ROWS)
        base = max(0, start - w)
        rows, ends = band[base:stop].tolist(), rhs[base:stop].tolist()
        # z and i count from base; lo follows the same rule as in _eliminate_views
        for z in range(stop - 1 - base, start - 1 - base, -1):
            lo = z - w if z > w else 0
            row, (visit, leaving) = rows[z], ends[z]
            # Q[z, lo:z] is row[first:w]; the level at row[c] sits at
            # column c + z - i of row i
            first = w - (z - lo)
            leave = 0.0
            for c in range(first, w):
                leave += row[c]
            leave += leaving
            if leave <= 0.0:
                unfolded.append(base + z)
                continue
            for c in range(first, w):
                row[c] /= leave
            visit /= leave
            if visit == math.inf:
                unfolded.append(base + z)
                continue
            leaving /= leave
            ends[z] = [visit, leaving]
            for i in range(lo, z):
                upper, shift = rows[i], z - i
                f = upper[w + shift]
                for c in range(first, w):
                    upper[c + shift] += f * row[c]
                below = ends[i]
                below[0] += f * visit
                below[1] += f * leaving
        band[base:stop] = rows
        rhs[base:stop] = ends
    return unfolded


def majority_hitting_by_level(n: int, r: int) -> np.ndarray:
    """Exact expected run times on the one-sided objective, per ones count 0..n."""
    times = bd_hitting_times(majority_chain(n, r))
    out = np.zeros(n + 1)
    out[: times.size] = times
    return out


def plateau_hitting_by_level(n: int, r: int) -> np.ndarray:
    """Exact expected run times on the two-sided plateau, per ones count 0..n."""
    times = bd_hitting_times(plateau_chain(n, r))
    # count j sits |j - n/2| from the middle; from r on it is optimal, and
    # times[r] is the absorbing level's 0.0
    return times[np.minimum(np.abs(np.arange(n + 1) - n // 2), r)]


def exact_levels(fit: FitnessFunction, ell: int) -> np.ndarray:
    """Exact expected run times of RLS_ell on a level objective, per ones count 0..n.

    Single flips on majority, and on a plateau with r >= 1, climb the
    width-1 ladder; an objective whose every level is optimal takes 0
    steps from each; every other case solves the banded kernel.
    """
    _check_flip(fit.n, ell)
    if all(fit.optimal_levels):
        return np.zeros(fit.n + 1)
    if ell == 1 and isinstance(fit, MajorityFitness):
        return majority_hitting_by_level(fit.n, fit.r)
    if ell == 1 and isinstance(fit, PlateauFitness) and fit.r >= 1:
        return plateau_hitting_by_level(fit.n, fit.r)
    return kernel_hitting_times(rlsl_kernel(fit.n, ell, fit.level_value))


def expected_under_init(
    hitting_by_level: np.ndarray, n: int, init: InitDistribution
) -> float:
    """Average a per-ones-count expectation over an initialization distribution.

    Uniform uses binomial weights computed in log space; their sum is 1 to
    within 1e-12.  UniformNonOptimal renormalises them over the levels its
    objective does not maximise, and Point takes its string's ones count.
    """
    levels = np.asarray(hitting_by_level, dtype=float)
    if levels.shape != (n + 1,):
        raise ValueError(f"expected one value per level 0..{n}")
    if isinstance(init, FixedOnes):
        return float(levels[init.checked(n)])
    if isinstance(init, Point):
        return float(levels[init.checked(n).ones])
    if isinstance(init, (Uniform, UniformNonOptimal)):
        log_half = n * math.log(2.0)
        # each weight is exp(log C(n, j) - log_half) with log C(n, j) =
        # lgamma(n + 1) - lgamma(j + 1) - lgamma(n - j + 1).  C(n, j) / 2**n
        # <= exp(-2 (j - n/2)**2 / n), so every weight with |j - n/2| >
        # sqrt(373 n) underflows to 0.0 and only the window within it (plus
        # 2 levels) is evaluated; the array stays full length, so a sum over
        # it keeps numpy's pairwise grouping
        top = math.lgamma(n + 1)
        width = math.isqrt(373 * n) + 2
        lo, hi = max(0, (n + 1) // 2 - width), min(n, n // 2 + width)
        # the window is its own mirror, n - hi = lo: lg[i] = lgamma(lo + i + 1)
        # and lg[-1 - i] = lgamma(n - (lo + i) + 1)
        lg = [math.lgamma(j + 1) for j in range(lo, hi + 1)]
        weights = np.zeros(n + 1)
        weights[lo : hi + 1] = [
            math.exp(top - a - b - log_half) for a, b in zip(lg, reversed(lg))
        ]
        if isinstance(init, UniformNonOptimal):
            fit = init.checked(n)
            weights[fit.optimal_levels] = 0.0
            total = weights.sum()
            if total == 0.0:
                raise ValueError("no non-optimal level has a uniform weight above 0")
            weights /= total
        mask = weights > 0.0
        if np.any(~np.isfinite(levels[mask])):
            return math.inf
        return float(np.dot(weights[mask], levels[mask]))
    raise ValueError(f"unsupported initialization {init!r} for exact expectations")


@dataclass(frozen=True)
class DriftRow:
    """Exact one-step drift at one plateau level versus its proven floor."""

    m: int
    drift: float
    lower_bound: float
    slack: float
    rel_slack: float


def drift_check(n: int, r: int) -> list[DriftRow]:
    """Exact per-level potential drift on the plateau against the proof floor.

    The drift g(m) - E[g(next)] is accumulated as a probability-weighted
    sum of pairwise potential differences; the shared lam^r term cancels
    algebraically, so the result stays accurate even when the potential
    dwarfs the drift.  Floors: lam - 1 at the balanced level, otherwise
    lam^(m - n/2) (lam - 1) / (3r), which is attained one level under the
    optimum.
    """
    downs, _, ups = plateau_chain(n, r).band.T.tolist()
    lam = theory.potential_base(n, r)
    half = n // 2
    rows = []
    for m in range(half, half + r):
        up, down = ups[m - half], downs[m - half]
        if m + 1 == half + r:
            gain = theory._pow(lam, r) - theory._pow(lam, m - half)
        else:
            gain = theory._pow(lam, m - half) * (lam - 1.0)
        loss = theory._pow(lam, m - 1 - half) * (lam - 1.0) if down else 0.0
        drift = up * gain - down * loss
        if m == half:
            bound = lam - 1.0
        else:
            bound = theory._pow(lam, m - half) * (lam - 1.0) / (3.0 * r)
        slack = drift - bound
        rel = slack / bound if bound not in (0.0, math.inf) else 0.0
        rows.append(DriftRow(m, drift, bound, slack, rel))
    return rows


def drift_check_ok(rows: Iterable[DriftRow]) -> bool:
    """True when no level's drift falls below its floor by more than DRIFT_TOL (relative)."""
    return all(row.rel_slack >= -DRIFT_TOL for row in rows if math.isfinite(row.lower_bound))


def compliance_check(n: int, ell: int) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Exhaustive monotonicity check of exact-ell-bit flips on ones counts.

    Every mutation shifts the ones count by ell - 2a, so two synchronized
    walks can only meet at levels of equal parity; compliance therefore
    compares starting levels two apart.  Compliant means: for every
    threshold i, the higher of two comparable starts is at least as
    likely to land at or above i, which a flip from level j does exactly
    when its overlap a is at most (j + ell - i) / 2.  The first violating
    (lower level, higher level, threshold) is returned when one exists.
    """
    _check_flip(n, ell)
    if (n + 1) ** 2 > BAND_LIMIT:
        raise ValueError(f"{(n + 1) ** 2} level pairs exceed the band limit {BAND_LIMIT}")
    sums = overlap_rows(n, ell, range(n + 1))
    sums.cumsum(axis=1, out=sums)
    for j in range(n - 1):
        # no flip from j lands past j + ell, so no threshold there shows a violation
        most = (j + ell - np.arange(min(n, j + ell) + 1)) // 2
        low, high = sums[j, np.minimum(most, ell)], sums[j + 2, np.minimum(most + 1, ell)]
        bad = np.flatnonzero(low > high + 1e-12)
        if bad.size:
            return False, (j, j + 2, int(bad[0]))
    return True, None

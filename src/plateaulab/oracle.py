"""Exact level-chain oracles: hitting times, drift verification, mutation monotonicity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import theory
from .core import FixedOnes, InitDistribution, Uniform, hypergeom_pmf, log_binomial
from .fitness import FitnessFunction

DENSE_LIMIT = 4097
_ROW_TOL = 1e-12
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class BirthDeathChain:
    """Nearest-neighbour chain on an integer interval with absorbing targets.

    up/down are indexed by state - lo; any leftover probability is a
    self-loop.  Absorbing states carry no outgoing mass.
    """

    lo: int
    hi: int
    up: tuple[float, ...]
    down: tuple[float, ...]
    absorbing: frozenset[int]

    def __post_init__(self) -> None:
        size = self.hi - self.lo + 1
        if size < 1 or len(self.up) != size or len(self.down) != size:
            raise ValueError("up/down must cover every state in [lo..hi]")
        for s in range(size):
            u, d = self.up[s], self.down[s]
            if not (0.0 <= u <= 1.0 and 0.0 <= d <= 1.0 and u + d <= 1.0 + _ROW_TOL):
                raise ValueError(f"invalid transition probabilities at state {self.lo + s}")
        for s in self.absorbing:
            if not self.lo <= s <= self.hi:
                raise ValueError(f"absorbing state {s} outside [lo..hi]")
            if self.up[s - self.lo] != 0.0 or self.down[s - self.lo] != 0.0:
                raise ValueError(f"absorbing state {s} must have no outgoing mass")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


def plateau_chain(n: int, r: int) -> BirthDeathChain:
    """Majority-count walk of single-bit local search on the two-sided plateau.

    From the balanced level every flip breaks the tie upward; above it the
    leading count grows only when one of the n - m minority bits is
    flipped, so up(m) = (n - m)/n and down(m) = m/n.  The level n/2 + r is
    absorbing.
    """
    theory._check_params(n, r)
    lo, hi = n // 2, n // 2 + r
    up, down = [], []
    for m in range(lo, hi + 1):
        if m == hi:
            up.append(0.0)
            down.append(0.0)
        elif m == lo:
            up.append(1.0)
            down.append(0.0)
        else:
            up.append((n - m) / n)
            down.append(m / n)
    return BirthDeathChain(lo, hi, tuple(up), tuple(down), frozenset({hi}))


def majority_chain(n: int, r: int) -> BirthDeathChain:
    """Ones-count walk of single-bit local search on the one-sided objective.

    Every sub-threshold state accepts every move, so up(j) = (n - j)/n and
    down(j) = j/n on [0..n/2+r], with the threshold level absorbing.
    r=0 gives the walk used to recover a majority of ones.
    """
    theory._check_params(n, r, min_r=0)
    lo, hi = 0, n // 2 + r
    up, down = [], []
    for j in range(lo, hi + 1):
        if j == hi:
            up.append(0.0)
            down.append(0.0)
        else:
            up.append((n - j) / n)
            down.append(j / n)
    return BirthDeathChain(lo, hi, tuple(up), tuple(down), frozenset({hi}))


def bd_hitting_times(chain: BirthDeathChain) -> np.ndarray:
    """Expected absorption times for a chain absorbing in a top block.

    Uses the ladder recurrence t(m) = (1 + down(m) t(m-1)) / up(m) for the
    expected passage time from m to m+1 and accumulates it with
    compensated (Kahan) summation; overflow degrades to +inf rather than
    raising.
    """
    target = min(chain.absorbing) if chain.absorbing else None
    if target is None or chain.absorbing != frozenset(range(target, chain.hi + 1)):
        raise ValueError("solver requires a contiguous top block of absorbing states")
    if chain.down[0] != 0.0:
        raise ValueError("bottom state must not leak below the state range")
    size = chain.size
    times = np.zeros(size)
    k = target - chain.lo
    ladder = np.empty(k)
    with np.errstate(over="ignore"):
        for s in range(k):
            if chain.up[s] <= 0.0:
                raise ValueError(
                    f"no absorbing state reachable from state {chain.lo + s}"
                )
            below = chain.down[s] * ladder[s - 1] if s > 0 else 0.0
            ladder[s] = (1.0 + below) / chain.up[s]
    total = 0.0
    carry = 0.0
    for s in range(k - 1, -1, -1):
        if math.isinf(ladder[s]) or math.isinf(total):
            total = math.inf
        else:
            y = ladder[s] - carry
            t = total + y
            carry = (t - total) - y
            total = t
        times[s] = total
    return times


def bd_expected_hitting(chain: BirthDeathChain, start: int) -> float:
    """Expected absorption time from one state; 0 when it is absorbing."""
    if not chain.lo <= start <= chain.hi:
        raise ValueError(f"start {start} outside [{chain.lo}..{chain.hi}]")
    return float(bd_hitting_times(chain)[start - chain.lo])


@dataclass(frozen=True, eq=False)
class KernelChain:
    """Dense row-stochastic transition matrix over ones-count levels."""

    matrix: np.ndarray
    absorbing: frozenset[int]

    def __post_init__(self) -> None:
        P = self.matrix
        size = P.shape[0]
        if P.ndim != 2 or P.shape[1] != size:
            raise ValueError("transition matrix must be square")
        if np.any(P < -_ROW_TOL):
            raise ValueError("transition probabilities must be nonnegative")
        rowsum = P.sum(axis=1)
        if np.max(np.abs(rowsum - 1.0)) > _ROW_TOL:
            raise ValueError("every row must sum to 1 within 1e-12")
        for s in self.absorbing:
            if not 0 <= s < size:
                raise ValueError(f"absorbing state {s} out of range")
            if P[s, s] != 1.0:
                raise ValueError(f"absorbing state {s} must be a unit self-loop")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def level_fitness(fit: FitnessFunction) -> Callable[[int], int]:
    """Per-level view of a fitness that depends only on the ones count."""
    if not fit.level_symmetric:
        raise ValueError(
            "fitness must depend on the bitstring only through its ones count"
        )
    return fit.level_value


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
    diagonal.  By default the argmax levels are absorbing.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"ell must lie in [1..n], got ell={ell}, n={n}")
    if n + 1 > DENSE_LIMIT:
        raise ValueError(f"kernel size {n + 1} exceeds the dense limit {DENSE_LIMIT}")
    values = [fitness_by_level(j) for j in range(n + 1)]
    if absorbing is None:
        top = max(values)
        absorbing = {j for j, v in enumerate(values) if v == top}
    absorbing = frozenset(absorbing)
    P = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        if j in absorbing:
            P[j, j] = 1.0
            continue
        for a in range(max(0, ell - (n - j)), min(j, ell) + 1):
            p = hypergeom_pmf(n, j, ell, a)
            j2 = j + ell - 2 * a
            if values[j2] >= values[j]:
                P[j, j2] += p
            else:
                P[j, j] += p
    return KernelChain(P, absorbing)


def kernel_hitting_times(kernel: KernelChain) -> np.ndarray:
    """Expected absorption times for every level of a dense kernel.

    Solves (I - Q) E = 1 on the transient block by state-reduction
    Gaussian elimination in which every pivot is accumulated as a sum of
    leaving probabilities, never as 1 - P[z, z]; all intermediate
    quantities stay nonnegative, which keeps componentwise relative
    accuracy even when expectations span hundreds of orders of magnitude.
    The computed vector is verified against the residual contract
    max|(I - Q) E - 1| <= 1e-9 (1 + max E).
    """
    size = kernel.size
    if size > DENSE_LIMIT:
        raise ValueError(f"kernel size {size} exceeds the dense limit {DENSE_LIMIT}")
    if not kernel.absorbing:
        raise ValueError("no absorbing state reachable")
    trans = [s for s in range(size) if s not in kernel.absorbing]
    out = np.zeros(size)
    m = len(trans)
    if m == 0:
        return out
    Q = kernel.matrix[np.ix_(trans, trans)].copy()
    absorb = kernel.matrix[np.ix_(trans, sorted(kernel.absorbing))].sum(axis=1)
    visit_cost = np.ones(m)
    saved_rows: list[tuple[np.ndarray, float]] = [(np.empty(0), 0.0)] * m
    for z in range(m - 1, 0, -1):
        leave = Q[z, :z].sum() + absorb[z]
        if leave <= 0.0:
            raise ValueError(
                f"absorption unreachable from level {trans[z]} (singular system)"
            )
        row = Q[z, :z] / leave
        cost = visit_cost[z] / leave
        saved_rows[z] = (row.copy(), cost)
        col = Q[:z, z]
        Q[:z, :z] += np.outer(col, row)
        visit_cost[:z] += col * cost
        absorb[:z] += col * (absorb[z] / leave)
    if absorb[0] <= 0.0:
        raise ValueError(f"absorption unreachable from level {trans[0]} (singular system)")
    E = np.empty(m)
    E[0] = visit_cost[0] / absorb[0]
    for z in range(1, m):
        row, cost = saved_rows[z]
        E[z] = cost + float(row @ E[:z])
    for k, s in enumerate(trans):
        out[s] = E[k]
    if np.all(np.isfinite(E)):
        A = np.eye(m) - kernel.matrix[np.ix_(trans, trans)]
        residual = float(np.max(np.abs(A @ E - 1.0)))
        if residual > _RESIDUAL_TOL * (1.0 + float(np.max(E))):
            raise ArithmeticError(
                f"solver residual {residual:g} violates the accuracy contract"
            )
    return out


def kernel_expected_hitting(kernel: KernelChain, start: int) -> float:
    """Expected absorption time from one level of a dense kernel."""
    if not 0 <= start < kernel.size:
        raise ValueError(f"start level {start} out of range")
    return float(kernel_hitting_times(kernel)[start])


def majority_hitting_by_level(n: int, r: int) -> np.ndarray:
    """Exact expected run times on the one-sided objective, per ones count 0..n."""
    chain = majority_chain(n, r)
    times = bd_hitting_times(chain)
    out = np.zeros(n + 1)
    out[: chain.size] = times
    return out


def plateau_hitting_by_level(n: int, r: int) -> np.ndarray:
    """Exact expected run times on the two-sided plateau, per ones count 0..n."""
    chain = plateau_chain(n, r)
    times = bd_hitting_times(chain)
    out = np.zeros(n + 1)
    for j in range(n + 1):
        m = max(j, n - j)
        out[j] = times[m - chain.lo] if m <= chain.hi else 0.0
    return out


def expected_under_init(
    hitting_by_level: np.ndarray, n: int, init: InitDistribution
) -> float:
    """Average a per-ones-count expectation over an initialization distribution.

    Uniform uses binomial weights computed in log space; their sum is 1 to
    within 1e-12.
    """
    levels = np.asarray(hitting_by_level, dtype=float)
    if levels.shape != (n + 1,):
        raise ValueError(f"expected one value per level 0..{n}")
    if isinstance(init, FixedOnes):
        if not 0 <= init.ones <= n:
            raise ValueError(f"ones count {init.ones} exceeds length {n}")
        return float(levels[init.ones])
    if isinstance(init, Uniform):
        log_half = n * math.log(2.0)
        weights = np.array(
            [math.exp(log_binomial(n, j) - log_half) for j in range(n + 1)]
        )
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
    chain = plateau_chain(n, r)
    lam = theory.potential_base(n, r)
    half = n // 2
    rows = []
    for m in range(chain.lo, chain.hi):
        s = m - chain.lo
        up, down = chain.up[s], chain.down[s]
        if m + 1 == chain.hi:
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


def drift_check_ok(rows: Iterable[DriftRow], tol: float = 1e-9) -> bool:
    """True when no level's drift falls below its floor by more than tol (relative)."""
    return all(row.rel_slack >= -tol for row in rows if math.isfinite(row.lower_bound))


def compliance_check(
    n: int, ell: int, exhaustive_limit: int = 64
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Exhaustive monotonicity check of exact-ell-bit flips on ones counts.

    Every mutation shifts the ones count by ell - 2a, so two synchronized
    walks can only meet at levels of equal parity; compliance therefore
    compares starting levels two apart.  Compliant means: for every
    threshold i, the higher of two comparable starts is at least as
    likely to land at or above i.  Survival functions come from the
    hypergeometric overlap law; the first violating
    (lower level, higher level, threshold) is returned when one exists.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"ell must lie in [1..n], got ell={ell}, n={n}")
    if n > exhaustive_limit:
        raise ValueError(f"n={n} exceeds the exhaustive limit {exhaustive_limit}")
    survival = np.zeros((n + 1, n + 2))
    for j in range(n + 1):
        pmf = np.zeros(n + 1)
        for a in range(max(0, ell - (n - j)), min(j, ell) + 1):
            pmf[j + ell - 2 * a] += hypergeom_pmf(n, j, ell, a)
        survival[j, :-1] = pmf[::-1].cumsum()[::-1]
    for j in range(n - 1):
        for i in range(n + 1):
            if survival[j, i] > survival[j + 2, i] + 1e-12:
                return False, (j, j + 2, i)
    return True, None

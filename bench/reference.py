"""Reference answers the benchmark checks the program against.

Exact expectations come from a kernel built with exact integer binomials
(``math.comb``) and solved with ``numpy.linalg.solve``; nothing here
imports ``plateaulab``, so a defect in the program's own oracle cannot
hide a defect in its answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

EXACT_RTOL = 1e-9
GATE_SE = 4.0


def level_value(function: str, n: int, r: int) -> Callable[[int], int]:
    """Fitness of a ones count for the level-symmetric objectives."""
    top = n // 2 + r
    if function == "majority":
        return lambda j: int(j >= top)
    if function == "plateau":
        return lambda j: int(j >= top or n - j >= top)
    raise ValueError(f"no level form for {function!r}")


def hitting_levels(function: str, n: int, r: int, ell: int) -> list[float]:
    """Expected hitting time of the optimum from every ones count 0..n."""
    value = level_value(function, n, r)
    values = [value(j) for j in range(n + 1)]
    best = max(values)
    trans = [j for j in range(n + 1) if values[j] != best]
    index = {j: i for i, j in enumerate(trans)}
    total = math.comb(n, ell)
    A = np.zeros((len(trans), len(trans)))
    for j, i in index.items():
        leave = 0
        for a in range(max(0, ell - (n - j)), min(j, ell) + 1):
            j2 = j + ell - 2 * a
            if j2 == j or values[j2] < values[j]:
                continue
            ways = math.comb(j, a) * math.comb(n - j, ell - a)
            leave += ways
            if j2 in index:
                A[i, index[j2]] = -ways / total
        # the diagonal is the exact leaving mass, never 1 - P[j, j]
        A[i, i] = leave / total
    out = [0.0] * (n + 1)
    if trans:
        E = np.linalg.solve(A, np.ones(len(trans)))
        for j, i in index.items():
            out[j] = float(E[i])
    return out


def expected(levels: list[float], init: str) -> float:
    """Average per-level expectations over ``uniform`` or ``ones=J``."""
    n = len(levels) - 1
    if init.startswith("ones="):
        return levels[int(init[5:])]
    if init != "uniform":
        raise ValueError(f"no reference for init {init!r}")
    scale = 2**n
    return math.fsum(math.comb(n, j) / scale * levels[j] for j in range(n + 1))


def close(answer: float, reference: float) -> bool:
    return math.isclose(answer, reference, rel_tol=EXACT_RTOL, abs_tol=EXACT_RTOL)


@dataclass
class Pool:
    """Sample means of independent repetitions, pooled into one estimate."""

    count: float = 0.0
    total: float = 0.0
    var: float = 0.0

    def add(self, mean: float, stderr: float, count: float) -> None:
        self.count += count
        self.total += mean * count
        self.var += (stderr * count) ** 2

    @property
    def mean(self) -> float:
        return self.total / self.count

    @property
    def stderr(self) -> float:
        return math.sqrt(self.var) / self.count


@dataclass(frozen=True)
class Check:
    """One correctness check: a measured value against its target."""

    name: str
    value: Optional[float]
    target: float
    stderr: Optional[float]
    ok: bool

    def line(self) -> str:
        head = f"{'ok  ' if self.ok else 'MISS'} {self.name}"
        if self.value is None:
            return head
        se = "" if self.stderr is None else f" (se {self.stderr:.4g}, band {GATE_SE:g} se)"
        return f"{head}: {self.value!r} vs {self.target!r}{se}"


def band_check(name: str, pool: Pool, target: float, scale: float = 1.0) -> Check:
    if pool.count == 0:
        return Check(name, None, target, None, False)
    value, se = pool.mean / scale, pool.stderr / scale
    return Check(name, value, target, se, abs(value - target) <= GATE_SE * se)

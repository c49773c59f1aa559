"""Exact counting of power-sum systems and the mean-value bound formula.

A system instance asks how many 2k-tuples in [1,P]^2k have the first k
and last k entries agreeing on all power sums up to degree m, offset by
lambda.  Counting is meet-in-the-middle: one histogram of k-tuple power
sums, then one pass matching s against s - lambda, so the cost is P^k
rather than P^2k.  The histogram itself enumerates multisets (sorted
tuples weighted by multinomial coefficients), far fewer than P^k entries.

The bound constant D(m,tau) reaches astronomical sizes (10^5 digits at
the scales the estimates run at), so every bound quantity lives in log
space and D is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from ._pool import parallel_map
from .errors import DEFAULT_BUDGET, BudgetExceeded


@dataclass(frozen=True)
class VinogradovInstance:
    """One counting query: (k, m, P) and the m offsets lambda.

    Counts are zero by construction when any |lambda_j| reaches k*P^j.
    """

    k: int
    m: int
    P: int
    lam: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1 or self.m < 1 or self.P < 1:
            raise ValueError("k, m, P must all be >= 1")
        if len(self.lam) != self.m:
            raise ValueError(f"need {self.m} offsets, got {len(self.lam)}")
        object.__setattr__(self, "lam", tuple(self.lam))


@dataclass(frozen=True)
class PowerSumHistogram:
    """Power-sum vector -> number of ordered k-tuples in [1,P]^k attaining it."""

    k: int
    m: int
    P: int
    counts: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.counts.values())


_hist_cache: dict[tuple[int, int, int], PowerSumHistogram] = {}


def _hist_slice(args: tuple[int, int, int, int]) -> dict[tuple[int, ...], int]:
    """Histogram restricted to sorted tuples with smallest entry `first`."""
    k, m, P, first = args
    fact = [math.factorial(i) for i in range(k + 1)]
    counts: dict[tuple[int, ...], int] = {}
    for rest in combinations_with_replacement(range(first, P + 1), k - 1):
        tup = (first, *rest)
        weight = fact[k]
        run = 1
        for i in range(1, k):
            if tup[i] == tup[i - 1]:
                run += 1
            else:
                weight //= fact[run]
                run = 1
        weight //= fact[run]
        key = tuple(sum(x**j for x in tup) for j in range(1, m + 1))
        counts[key] = counts.get(key, 0) + weight
    return counts


def power_sum_histogram(k: int, m: int, P: int, threads: int = 1) -> PowerSumHistogram:
    """Build (or fetch) the ordered-tuple histogram; total is always P^k.

    Construction splits on the smallest tuple entry; slice merge is map
    union with addition, so any worker schedule gives identical results.
    """
    cached = _hist_cache.get((k, m, P))
    if cached is not None:
        return cached
    tasks = [(k, m, P, first) for first in range(1, P + 1)]
    slices = parallel_map(_hist_slice, tasks, threads)
    counts: dict[tuple[int, ...], int] = {}
    for part in slices:
        for key, v in part.items():
            counts[key] = counts.get(key, 0) + v
    hist = PowerSumHistogram(k, m, P, counts)
    assert hist.total() == P**k, "histogram lost mass; implementation bug"
    _hist_cache[(k, m, P)] = hist
    return hist


def _check_budget(k: int, P: int, budget: int) -> None:
    cost = P**k
    if cost > budget:
        raise BudgetExceeded(
            f"enumeration cost P^k = {P}^{k} = {cost} exceeds budget {budget}",
            estimated_cost=cost,
            budget=budget,
        )


def j_count(inst: VinogradovInstance, budget: int = DEFAULT_BUDGET, threads: int = 1) -> int:
    """Exact number of solutions of the offset power-sum system."""
    k, m, P, lam = inst.k, inst.m, inst.P, inst.lam
    if any(abs(l) > k * (P**j - 1) for j, l in enumerate(lam, start=1)):
        return 0
    _check_budget(k, P, budget)
    hist = power_sum_histogram(k, m, P, threads=threads).counts
    total = 0
    for key, v in hist.items():
        w = hist.get(tuple(s - l for s, l in zip(key, lam)))
        if w:
            total += v * w
    return total


def j_count_zero(k: int, m: int, P: int, budget: int = DEFAULT_BUDGET, threads: int = 1) -> int:
    """Solution count with all offsets zero: sum of squared histogram counts."""
    _check_budget(k, P, budget)
    hist = power_sum_histogram(k, m, P, threads=threads).counts
    return sum(v * v for v in hist.values())


def lemma4_bound(m: int, tau: int, P: int) -> tuple[float, float, float]:
    """(log_D, Delta, log_bound) for the mean-value estimate at k = m*tau.

    log_D = 6 m tau ln(m tau) + 4 m (m+1) tau ln(2m);
    Delta = (1/2) m (m+1) (1 - (1 - 1/m)^tau), which is 1 at m = 1;
    log_bound = log_D + (2k - Delta) ln P.
    """
    if m < 1 or tau < 1 or P < 1:
        raise ValueError("m, tau, P must all be >= 1")
    k = m * tau
    log_D = 6 * k * math.log(k) + 4 * m * (m + 1) * tau * math.log(2 * m)
    Delta = 0.5 * m * (m + 1) * (1.0 - (1.0 - 1.0 / m) ** tau)
    return log_D, Delta, log_D + (2 * k - Delta) * math.log(P)


def lemma4_check(
    m: int, tau: int, P: int, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> tuple[int, float, bool]:
    """Exact count at k = m*tau against its bound, compared in log space."""
    count = j_count_zero(m * tau, m, P, budget=budget, threads=threads)
    _, _, log_bound = lemma4_bound(m, tau, P)
    return count, log_bound, math.log(count) <= log_bound

"""Exact counting of power-sum systems and the mean-value bound formula.

A system instance asks how many 2k-tuples in [1,P]^2k have the first k
and last k entries agreeing on all power sums up to degree m, offset by
lambda.  Counting is meet-in-the-middle: one histogram of k-tuple power
sums, then one lookup of s - lambda for every key s, so the cost is P^k
rather than P^2k.

Each power-sum vector (s_1..s_m) of a k-tuple is packed into one integer
by mixed radix: digit j is s_j - k, which lies in [0, k(P^j - 1)], and
its radix is 2k(P^j - 1) + 1.  Packing is additive with no carry, and
since the radix exceeds every difference of two digits minus an offset
with |lambda_j| <= k(P^j - 1), packed(s) - packed-shift(lambda) equals
packed(s') exactly when s - lambda = s' componentwise.  The histogram is
a sorted numpy array of packed keys with aligned counts, built from the
P single-element keys by k - 1 rounds of (distinct keys x P) additions,
each followed by a sort and a merge of equal keys; a count is then one
binary search of every shifted key and a dot product of the matched
counts.  Every count is exact: the arrays are int64 while the packed key
span and P^2k stay below 2^62, and hold Python ints (object dtype) past
that, through the same code.  Counting runs in the calling process.

The bound constant D(m,tau) reaches astronomical sizes (10^5 digits at
the scales the estimates run at), so every bound quantity lives in log
space and D is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded

# int64 holds packed keys, shifted keys and counts up to P^2k below this.
_INT64_LIMIT = 2**62


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


def _pack(digits, radix: tuple[int, ...]) -> int:
    """Mixed-radix value of `digits` (least significant first); any sign."""
    value = 0
    for d, r in zip(reversed(digits), reversed(radix)):
        value = value * r + d
    return value


@dataclass(frozen=True, eq=False)
class PowerSumHistogram:
    """Ordered k-tuples in [1,P]^k grouped by power-sum vector.

    `keys` holds the distinct packed vectors in increasing order and
    `counts` the number of tuples attaining each; `radix` is the mixed
    radix of the packing (digit j is s_j - k).
    """

    k: int
    m: int
    P: int
    radix: tuple[int, ...]
    keys: np.ndarray
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())

    def as_dict(self) -> dict[tuple[int, ...], int]:
        """{power-sum vector: count}, unpacked to tuples of Python ints."""
        out = {}
        for key, count in zip(self.keys.tolist(), self.counts.tolist()):
            vec = []
            for r in self.radix:
                key, digit = divmod(key, r)
                vec.append(digit + self.k)
            out[tuple(vec)] = count
        return out


def power_sum_histogram(k: int, m: int, P: int) -> PowerSumHistogram:
    """Build (or fetch) the ordered-tuple histogram; total is always P^k.

    Round i adds every single-element key to every distinct key of the
    (i-1)-tuples, sorts the sums and merges equal keys by integer
    addition, so the result does not depend on any schedule.  The last 8
    histograms are cached.
    """
    return _build_histogram(k, m, P)


@lru_cache(maxsize=8)
def _build_histogram(k: int, m: int, P: int) -> PowerSumHistogram:
    radix = tuple(2 * k * (P**j - 1) + 1 for j in range(1, m + 1))
    fits_int64 = max(math.prod(radix), P ** (2 * k)) < _INT64_LIMIT
    dtype = np.int64 if fits_int64 else object
    single = np.array(
        [_pack([x**j - 1 for j in range(1, m + 1)], radix) for x in range(1, P + 1)],
        dtype=dtype,
    )
    keys, counts = single, np.ones(P, dtype=dtype)
    for _ in range(k - 1):
        sums = (keys[:, None] + single[None, :]).ravel()
        order = np.argsort(sums)
        sums = sums[order]
        weights = np.repeat(counts, P)[order]
        starts = np.flatnonzero(np.concatenate(([True], sums[1:] != sums[:-1])))
        keys, counts = sums[starts], np.add.reduceat(weights, starts)
    hist = PowerSumHistogram(k, m, P, radix, keys, counts)
    assert hist.total() == P**k, "histogram lost mass; implementation bug"
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
    """Exact number of solutions of the offset power-sum system.

    `threads` is unused (counting runs in the calling process); it stays
    only because the benchmark harness, perfbench/workloads.py, passes it.
    """
    k, m, P, lam = inst.k, inst.m, inst.P, inst.lam
    if any(abs(l) > k * (P**j - 1) for j, l in enumerate(lam, start=1)):
        return 0
    _check_budget(k, P, budget)
    hist = power_sum_histogram(k, m, P)
    keys, counts = hist.keys, hist.counts
    target = keys - _pack(lam, hist.radix)
    idx = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
    hit = keys[idx] == target
    return int(np.dot(counts[hit], counts[idx[hit]]))


def j_count_zero(k: int, m: int, P: int, budget: int = DEFAULT_BUDGET) -> int:
    """Solution count with all offsets zero: sum of squared histogram counts."""
    _check_budget(k, P, budget)
    counts = power_sum_histogram(k, m, P).counts
    return int(np.dot(counts, counts))


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
    """Exact count at k = m*tau against its bound, compared in log space.

    Raises BudgetExceeded before counting when P^(m tau) exceeds budget.
    `threads` is unused and stays for the same reason as in j_count.
    """
    count = j_count_zero(m * tau, m, P, budget=budget)
    _, _, log_bound = lemma4_bound(m, tau, P)
    return count, log_bound, math.log(count) <= log_bound

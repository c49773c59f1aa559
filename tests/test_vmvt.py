from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kls import klsum, vmvt
from kls.errors import BudgetExceeded
from kls.vmvt import (
    VinogradovInstance,
    j_count,
    j_count_zero,
    lemma4_bound,
    lemma4_check,
    power_sum_histogram,
)

from oracles import naive_j_count


def test_histogram_total_mass():
    for k, m, P in [(1, 1, 5), (2, 2, 3), (3, 2, 4), (4, 3, 3)]:
        hist = power_sum_histogram(k, m, P)
        assert hist.total() == P**k


def test_histogram_threads_identical(monkeypatch):
    h1 = power_sum_histogram(3, 2, 5)
    # bypass the cache to force a rebuild, which must start no pool
    vmvt._build_histogram.cache_clear()

    def no_pool(*args, **kwargs):
        raise AssertionError("counting started a process pool")

    monkeypatch.setattr(klsum, "ProcessPoolExecutor", no_pool)
    h2 = power_sum_histogram(3, 2, 5)
    assert np.array_equal(h1.keys, h2.keys) and np.array_equal(h1.counts, h2.counts)
    assert h1.as_dict() == h2.as_dict()


def test_j_count_frozen_cases():
    assert j_count(VinogradovInstance(1, 1, 5, (0,))) == 5
    assert j_count(VinogradovInstance(2, 2, 2, (0, 0))) == 6
    assert j_count(VinogradovInstance(2, 2, 3, (0, 0))) == 15
    assert j_count_zero(2, 2, 2) == 6
    assert j_count_zero(2, 2, 3) == 15
    assert j_count_zero(2, 1, 2) == 6


def test_j_count_matches_naive_oracle():
    rng = random.Random(66)
    for _ in range(25):
        k = rng.randrange(1, 3)
        m = rng.randrange(1, 3)
        P = rng.randrange(2, 5)
        lam = [rng.randrange(-3, 4) for _ in range(m)]
        inst = VinogradovInstance(k, m, P, tuple(lam))
        assert j_count(inst) == naive_j_count(k, m, P, lam)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 2),
    m=st.integers(1, 3),
    P=st.integers(1, 4),
    lam=st.lists(st.integers(-80, 80), min_size=3, max_size=3),
)
def test_j_count_equals_naive_property(k, m, P, lam):
    # offsets reach well past k*(P^j - 1), the range where counts can be nonzero
    lam = lam[:m]
    assert j_count(VinogradovInstance(k, m, P, tuple(lam))) == naive_j_count(k, m, P, lam)


@pytest.mark.parametrize("k, m, P", [(1, 2, 3), (2, 2, 2), (1, 3, 2)])
def test_j_count_exhaustive_offsets(k, m, P):
    # every offset up to twice the attainable range: packed-key false matches
    # (too small a radix, or a missing range check) show up at these edges
    ranges = [range(-2 * k * P**j, 2 * k * P**j + 1) for j in range(1, m + 1)]
    for lam in itertools.product(*ranges):
        assert j_count(VinogradovInstance(k, m, P, lam)) == naive_j_count(k, m, P, list(lam))


def _power_sums(tup, m):
    return tuple(sum(x**j for x in tup) for j in range(1, m + 1))


def _dict_histogram(k, m, P):
    """{power-sum vector: number of ordered k-tuples}, by plain enumeration."""
    hist = {}
    for tup in itertools.product(range(1, P + 1), repeat=k):
        key = _power_sums(tup, m)
        hist[key] = hist.get(key, 0) + 1
    return hist


def _dict_j_count(hist, lam):
    """Meet-in-the-middle over a dict of tuples: sum of H[s] * H[s - lam]."""
    return sum(v * hist.get(tuple(a - b for a, b in zip(s, lam)), 0) for s, v in hist.items())


@pytest.mark.parametrize("k, m, P", [(2, 7, 60), (3, 6, 30)])
def test_object_dtype_route_matches_dict_reference(k, m, P):
    hist = power_sum_histogram(k, m, P)
    assert hist.keys.dtype == object  # packed keys or P^2k pass 2^62
    ref = _dict_histogram(k, m, P)
    assert hist.as_dict() == ref
    assert j_count_zero(k, m, P) == _dict_j_count(ref, (0,) * m)
    rng = random.Random(k * 100 + m)
    keys = list(ref)
    for _ in range(10):
        s, t = rng.choice(keys), rng.choice(keys)
        lam = tuple(a - b for a, b in zip(s, t))
        assert j_count(VinogradovInstance(k, m, P, lam)) == _dict_j_count(ref, lam)


@pytest.mark.parametrize("k, m, P", [(1, 3, 7), (2, 2, 5), (3, 3, 4), (4, 2, 3)])
def test_as_dict_round_trip(k, m, P):
    hist = power_sum_histogram(k, m, P)
    d = hist.as_dict()
    assert sum(d.values()) == P**k
    assert len(d) == len(hist.counts)
    assert d == _dict_histogram(k, m, P)


def test_j_count_symmetry_and_dominance():
    rng = random.Random(67)
    for _ in range(50):
        k = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        P = rng.randrange(2, 6)
        lam = tuple(rng.randrange(-10, 11) for _ in range(m))
        neg = tuple(-x for x in lam)
        c = j_count(VinogradovInstance(k, m, P, lam))
        assert c == j_count(VinogradovInstance(k, m, P, neg))
        assert c <= j_count_zero(k, m, P)


def test_j_count_zero_out_of_range():
    assert j_count(VinogradovInstance(2, 1, 3, (6,))) == 0
    assert j_count(VinogradovInstance(2, 2, 3, (0, 100),)) == 0


def test_sum_over_lambda_is_total_squared():
    for k, m, P in [(1, 1, 6), (2, 2, 3), (2, 1, 4), (3, 3, 3)]:
        hist = power_sum_histogram(k, m, P).as_dict()
        lams = {tuple(a - b for a, b in zip(s, t)) for s in hist for t in hist}
        total = sum(j_count(VinogradovInstance(k, m, P, lam)) for lam in lams)
        assert total == P ** (2 * k)


def test_monotone_in_P():
    for P in range(2, 7):
        assert j_count_zero(2, 2, P) <= j_count_zero(2, 2, P + 1)


def test_budget_gate():
    with pytest.raises(BudgetExceeded) as exc:
        j_count_zero(8, 4, 50, budget=10**8)
    assert exc.value.estimated_cost == 50**8
    assert exc.value.budget == 10**8
    # same instance passes with a raised budget? 50^8 ~ 3.9e13: keep gate only
    with pytest.raises(BudgetExceeded):
        j_count(VinogradovInstance(8, 4, 50, (0, 0, 0, 0)), budget=10**8)


def test_lemma4_bound_values():
    log_D, Delta, log_bound = lemma4_bound(2, 1, 2)
    assert abs(Delta - 1.5) < 1e-12
    assert abs(log_D - (12 * math.log(2) + 24 * math.log(4))) < 1e-9

    log_D, Delta, log_bound = lemma4_bound(1, 1, 7)
    assert Delta == 1.0
    assert abs(log_D - 8 * math.log(2)) < 1e-12
    assert abs(log_bound - math.log(256 * 7)) < 1e-9

    # tau -> infinity limit of Delta is m(m+1)/2
    _, Delta, _ = lemma4_bound(3, 500, 2)
    assert abs(Delta - 6.0) < 1e-9


def test_lemma4_check_cases():
    count, log_bound, holds = lemma4_check(1, 1, 4)
    assert count == 4 and abs(log_bound - math.log(1024)) < 1e-9 and holds
    count, _, holds = lemma4_check(2, 1, 2)
    assert count == 6 and holds
    count, _, holds = lemma4_check(1, 2, 2)
    assert count == 6 and holds


def test_lemma4_grid_holds():
    for m in (1, 2, 3):
        for tau in (1, 2, 3):
            for P in range(2, 9):
                if P ** (m * tau) > 2 * 10**8:
                    continue
                _, _, holds = lemma4_check(m, tau, P, budget=2 * 10**8)
                assert holds, (m, tau, P)


def test_instance_validation():
    with pytest.raises(ValueError):
        VinogradovInstance(0, 1, 2, (0,))
    with pytest.raises(ValueError):
        VinogradovInstance(1, 2, 2, (0,))

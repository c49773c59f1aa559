from __future__ import annotations

import ast
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kls import klsum
from kls.errors import CertificateFailure
from kls.factored import FactoredInteger, kernel
from kls.klsum import (
    CHUNK,
    DIFFERENCE_LIMIT,
    SCAN_FIELDS,
    TURN,
    SumSpec,
    _chunk_sum,
    _difference_step,
    _difference_sum,
    _plan,
    _turn_points,
    _unit_points,
    _workspace,
    eval_sum,
    scan,
    shift_to_kernel,
)

from oracles import naive_sum


def spec_of(q: int, N: int, a: int, b: int, c: int) -> SumSpec:
    return SumSpec(FactoredInteger.from_value(q), N, a, b, c)


def test_spec_normalizes_and_validates():
    s = spec_of(9, 5, 10, -1, 0)
    assert s.a == 1 and s.b == 8
    with pytest.raises(ValueError):
        spec_of(9, 5, 3, 0, 0)  # gcd(a, q) > 1
    with pytest.raises(ValueError):
        spec_of(9, 0, 1, 0, 0)


def test_eval_sum_frozen_cases():
    res = eval_sum(spec_of(9, 8, 1, 0, 0))
    assert res.terms_counted == 6 and res.skipped == 2
    assert res.value.abs_value() < 1e-12

    res = eval_sum(spec_of(4, 2, 1, 1, 0))
    assert res.terms_counted == 1 and res.skipped == 1
    assert abs(res.value.re + 1.0) < 1e-14 and abs(res.value.im) < 1e-14


def test_eval_sum_single_term_unimodular():
    res = eval_sum(spec_of(81, 1, 5, 3, 27))  # n = 28, coprime to 3
    assert res.terms_counted == 1
    assert abs(res.value.abs_value() - 1.0) < 1e-14


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    for _ in range(60):
        q = rng.randrange(2, 10**5)
        N = rng.randrange(1, 400)
        a = rng.randrange(1, q)
        while math.gcd(a, q) != 1:
            a = rng.randrange(1, q)
        b = rng.randrange(0, q)
        c = rng.randrange(-1000, 1000)
        res = eval_sum(spec_of(q, N, a, b, c))
        want = naive_sum(q, N, a, b, c)
        assert abs(complex(res.value.re, res.value.im) - want) <= 1e-9
        assert res.terms_counted + res.skipped == N
        assert res.value.abs_value() <= res.terms_counted + res.value.err


def test_conjugation_symmetry():
    rng = random.Random(5)
    for _ in range(40):
        q = rng.randrange(3, 3000)
        N = rng.randrange(1, 200)
        a = rng.randrange(1, q)
        while math.gcd(a, q) != 1:
            a = rng.randrange(1, q)
        b = rng.randrange(0, q)
        c = rng.randrange(-50, 50)
        z = eval_sum(spec_of(q, N, a, b, c)).value
        w = eval_sum(spec_of(q, N, -a, -b, c)).value
        tol = 2 * max(z.err, 1e-12)
        assert abs(z.re - w.re) <= tol and abs(z.im + w.im) <= tol


def test_chunk_boundary_consistency():
    # windows straddling the chunk size must agree with the naive oracle
    q = 3**7
    N = (1 << 16) + 37
    res = eval_sum(spec_of(q, N, 1, 2, (1 << 16) - 20))
    want = naive_sum(q, N, 1, 2, (1 << 16) - 20)
    assert abs(complex(res.value.re, res.value.im) - want) <= 1e-8


def test_threads_bit_identical():
    q = 2**4 * 3**4
    N = 3 * (1 << 16) + 11
    r1 = eval_sum(spec_of(q, N, 5, 7, -100), threads=1)
    r2 = eval_sum(spec_of(q, N, 5, 7, -100), threads=2)
    assert (r1.value.re, r1.value.im) == (r2.value.re, r2.value.im)
    assert r1.terms_counted == r2.terms_counted


def test_shift_to_kernel_frozen_cases():
    s, t = shift_to_kernel(spec_of(81, 10, 1, 0, 0))
    assert s.c == 0 and t == 0
    s, t = shift_to_kernel(spec_of(81, 10, 1, 0, 7))
    assert s.c == 6 and t == 1
    s, t = shift_to_kernel(spec_of(72, 10, 1, 0, -5))
    assert s.c == -6 and t == 1


def test_shift_inequality_random():
    rng = random.Random(99)
    for _ in range(100):
        q = rng.choice([3**4, 2**3 * 3**2, 5**4, 2**8, 7**3])
        d = 1
        for p in (2, 3, 5, 7):
            if q % p == 0:
                d *= p
        N = rng.randrange(5, 300)
        a = rng.randrange(1, q)
        while math.gcd(a, q) != 1:
            a = rng.randrange(1, q)
        spec = spec_of(q, N, a, rng.randrange(0, q), rng.randrange(-100, 100))
        shifted, t = shift_to_kernel(spec)
        assert 0 <= t < d and shifted.c % d == 0
        z1 = eval_sum(spec).value
        z2 = eval_sum(shifted).value
        diff = abs(complex(z1.re, z1.im) - complex(z2.re, z2.im))
        assert diff <= 2 * t + 1e-9
        assert 2 * t <= 2 * d


@settings(max_examples=60, deadline=None)
@given(
    exponents=st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 9), min_size=1, max_size=3
    ),
    N=st.integers(1, 2000),
    c=st.integers(-(10**12), 10**12),
    seed=st.integers(0, 2**32),
)
def test_shift_to_kernel_moves_sum_by_at_most_twice_shift(exponents, N, c, seed):
    q = FactoredInteger.from_factors(exponents.items())
    rng = random.Random(seed)
    a = rng.randrange(1, q.value)
    while math.gcd(a, q.value) != 1:
        a = rng.randrange(1, q.value)
    spec = SumSpec(q, N, a, rng.randrange(q.value), c)
    shifted, shift = shift_to_kernel(spec)
    assert 0 <= shift < kernel(q).value
    z0, z1 = eval_sum(spec).value, eval_sum(shifted).value
    assert abs(z0.as_complex() - z1.as_complex()) <= 2 * shift + z0.err + z1.err


def test_scan_rows():
    q = FactoredInteger.from_value(9)
    rows = scan(q, 1, 0, 0, [2, 4, 8])
    assert [r["N"] for r in rows] == [2, 4, 8]
    assert set(rows[0]) == set(SCAN_FIELDS)
    assert rows[2]["abs"] < 1e-12
    assert rows[2]["terms"] == rows[2]["trivial"] == 6
    assert rows[2]["thm1_applicable"] is False
    single = scan(q, 1, 0, 0, [1])
    assert len(single) == 1
    assert single[0]["ratio"] == single[0]["abs"] / single[0]["terms"]


def _powerful_case(rng: random.Random) -> tuple[FactoredInteger, int, int]:
    """(q, a, b): q below 2^62 with 1 to 3 primes, each squared or more."""
    while True:
        primes = sorted(rng.sample((2, 3, 5, 7, 11, 13, 17), rng.randint(1, 3)))
        q = FactoredInteger.from_factors((p, rng.randint(2, 40)) for p in primes)
        if q.value < DIFFERENCE_LIMIT:
            break
    a = rng.randrange(1, q.value)
    while math.gcd(a, q.value) != 1:
        a = rng.randrange(1, q.value)
    return q, a, rng.randrange(q.value)


def _assert_kernels_agree(q: FactoredInteger, N: int, a: int, b: int, c: int):
    """Both kernels on the whole window (c, c+N]: equal counts, values within both errs.

    The difference kernel runs at the step eval_sum would choose, or at
    s = d below the crossover.
    """
    qv, d = q.value, kernel(q).value
    step = _difference_step(q, N)
    s, m = step if step else (d, max(alpha for _, alpha in q.factors) - 1)
    diff = _difference_sum((qv, d, a, b, c, c + N, s, m))
    batch = _chunk_sum((qv, d, a, b, c, c + N))
    assert diff[2:] == batch[2:]
    assert diff[2] + diff[3] == N
    tol = 2 * diff[2] * 2.0**-46
    assert abs(complex(diff[0], diff[1]) - complex(batch[0], batch[1])) <= tol


def test_difference_kernel_matches_batch_random():
    rng = random.Random(31)
    sides = set()
    for _ in range(40):
        q, a, b = _powerful_case(rng)
        N = rng.choice((rng.randrange(1, 3000), rng.randrange(10**4, 6 * 10**4)))
        if N % kernel(q).value == 0:
            N += 1
        c = rng.choice((-1, 1)) * rng.randrange(10**12)
        sides.add(_difference_step(q, N) is None)
        _assert_kernels_agree(q, N, a, b, c)
    assert sides == {True, False}  # windows on both sides of the crossover


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    N=st.integers(1, 5000),
    c=st.integers(-(10**15), 10**15),
)
def test_difference_kernel_equals_batch_property(seed, N, c):
    q, a, b = _powerful_case(random.Random(seed))
    _assert_kernels_agree(q, N, a, b, c)


def test_corrupted_difference_table_raises(monkeypatch):
    exact = klsum._difference_table

    def corrupted(q, a, b, ns, s, m):
        table = exact(q, a, b, ns, s, m)
        table[m, len(ns) // 2] = (int(table[m, len(ns) // 2]) + 1) % q
        return table

    spec = spec_of(3**30, 20000, 5, 7, -11)
    assert _difference_step(spec.q, spec.N) is not None
    good = eval_sum(spec)
    monkeypatch.setattr(klsum, "_difference_table", corrupted)
    with pytest.raises(CertificateFailure):
        eval_sum(spec)
    monkeypatch.setattr(klsum, "_difference_table", exact)
    assert eval_sum(spec) == good


def test_large_modulus_takes_batch_path_thread_identical():
    q = FactoredInteger.parse("2^30*3^21")
    assert q.value >= DIFFERENCE_LIMIT
    N = 2 * CHUNK + 1234
    spec = SumSpec(q, N, 5, 7, -(10**9))
    tasks = _plan(spec)
    assert len(tasks) == 3 and all(fn is _chunk_sum for fn, _ in tasks)
    r1 = eval_sum(spec, threads=1)
    r2 = eval_sum(spec, threads=2)
    assert r1 == r2
    assert r1.terms_counted + r1.skipped == N


@pytest.mark.parametrize(
    "q, N_values, kernels",
    [
        ("5^20", [40, 3 * CHUNK, 20000], [_chunk_sum, _difference_sum, _difference_sum]),
        ("3^40", [40, 2 * CHUNK + 5, 100], [_chunk_sum] * 3),
    ],
)
def test_scan_rows_match_eval_sum_with_one_fan_out(monkeypatch, q, N_values, kernels):
    q = FactoredInteger.parse(q)
    assert [_plan(SumSpec(q, N, 7, 4, 17))[0][0] for N in N_values] == kernels
    calls = []
    real = klsum._parallel_map

    def counting(fn, tasks, threads):
        calls.append(len(tasks))
        return real(fn, tasks, threads)

    monkeypatch.setattr(klsum, "_parallel_map", counting)
    rows = scan(q, 7, 4, 17, N_values, threads=2)
    assert len(calls) == 1
    monkeypatch.undo()
    for row, N in zip(rows, N_values):
        res = eval_sum(SumSpec(q, N, 7, 4, 17), threads=2)
        want = (res.value.re, res.value.im, res.terms_counted)
        assert (row["re"], row["im"], row["terms"]) == want


def test_only_klsum_imports_process_pools():
    """klsum owns the one process pool; no other kls module can start workers."""
    pooled = {"concurrent", "multiprocessing"}
    offenders = []
    for path in sorted(Path(klsum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in pooled for name in names) and path.name != "klsum.py":
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


U = 2.0**-53
# Per-point bounds of the rounding model in kls.factored: the table entries,
# and a whole point from _unit_points and from the difference kernel.
TABLE_ERR, UNIT_POINT_ERR, DIFFERENCE_POINT_ERR = 3 * U, 11 * U, 27 * U


def _point_errors(q: int, vs, cos, sin) -> float:
    """Largest |computed - e(v/q)| over the points, against mpmath at 60 digits."""
    with mpmath.workdps(60):
        return max(
            float(abs(mpmath.mpc(c, s) - mpmath.expjpi(2 * mpmath.mpf(v) / q)))
            for v, c, s in zip(vs, cos.tolist(), sin.tolist())
        )


def _edge_arguments(q: int) -> list[int]:
    """v = 0, q - 1, the quarter turns, v just below, at and above bin edges, and a random spread.

    Every q here is a multiple of TURN, so v = j q / TURN puts t exactly on edge j.
    """
    assert q % TURN == 0
    vs = [0, q - 1, q // 4, q // 2, 3 * q // 4]
    for j in (1, 2, 127, 128, 255, 256, 257, 511, 512, 640, 767, 768, 1023):
        vs += [(j * q // TURN + delta) % q for delta in (-(q // TURN) // 3, -2, -1, 0, 1, 2)]
    rng = random.Random(q)
    return vs + [rng.randrange(q) for _ in range(300)]


def test_root_table_within_model():
    with mpmath.workdps(60):
        worst = max(
            float(abs(mpmath.mpc(c, s) - mpmath.expjpi(mpmath.mpf(2 * i) / TURN)))
            for i, (c, s) in enumerate(zip(klsum._ROOT_COS.tolist(), klsum._ROOT_SIN.tolist()))
        )
    assert len(klsum._ROOT_COS) == TURN + 1 and worst <= TABLE_ERR
    quarter = TURN // 4
    assert [(klsum._ROOT_COS[i], klsum._ROOT_SIN[i]) for i in range(0, TURN + 1, quarter)] == [
        (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)
    ]


@pytest.mark.parametrize(
    "q",
    [2**12 * 3**20, 2**12 * 3**28, 2**12 * 3**40],
    ids=["int64-below-2^53", "python-ints-below-2^62", "python-ints-above-2^62"],
)
def test_unit_points_within_model(q):
    vs = _edge_arguments(q)
    args = np.array(vs, dtype=np.int64) if q < 2**53 else vs
    cos, sin = _unit_points(q, args)
    assert _point_errors(q, vs, cos, sin) <= UNIT_POINT_ERR
    # exact at the quarter turns
    assert list(zip(cos[2:5], sin[2:5])) == [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


@pytest.mark.parametrize("q", [2**10 * 3**28, 2**12 * 3**30 + 2**12], ids=["2^10*3^28", "2^12*(3^30+1)"])
def test_difference_kernel_points_within_model(q):
    """The kernel's route: t = fl(v) fl(TURN / q) from uint64 arguments, then _turn_points."""
    assert 2**53 <= q < DIFFERENCE_LIMIT
    vs = _edge_arguments(q)
    t = np.array(vs, dtype=np.uint64) * (TURN / q)
    cos, sin = np.empty(len(vs)), np.empty(len(vs))
    _turn_points(t, cos, sin, _workspace(len(vs)))
    assert _point_errors(q, vs, cos, sin) <= DIFFERENCE_POINT_ERR


def test_difference_kernel_single_terms_match_route():
    """A one-term window of the real kernel is the point of its argument v = a + b (n = 1)."""
    q = 3**38
    vs = [0, q - 1, q // 4, q // 2] + [j * q // TURN + delta for j in (1, 511, 1023) for delta in (0, 1)]
    t = np.array(vs, dtype=np.uint64) * (TURN / q)
    cos, sin = np.empty(len(vs)), np.empty(len(vs))
    _turn_points(t, cos, sin, _workspace(len(vs)))
    for v, c, s in zip(vs, cos.tolist(), sin.tolist()):
        assert _difference_sum((q, 3, 1, (v - 1) % q, 0, 1, 3**6, 6)) == (c, s, 1, 0)
    assert _point_errors(q, vs, cos, sin) <= DIFFERENCE_POINT_ERR

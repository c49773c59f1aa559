from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from kls import bounds, klsum
from kls.errors import BudgetExceeded, DeltaOutOfRange
from kls.factored import FactoredInteger, kernel, per_term_bound
from kls.klsum import SumSpec, eval_sum, shift_to_kernel
from kls.postnikov import make_context, w_direct
from kls.bounds import (
    GAMMA_T1,
    amplified_bound,
    holder_constant,
    proof_parameters,
    regime_report,
    theorem1_bound,
    theorem2_bound,
    _cmp_pow,
)


def test_cmp_pow():
    assert _cmp_pow(2, 10, 3, 6) == 1  # 1024 vs 729
    assert _cmp_pow(2, 10, 2, 10) == 0
    assert _cmp_pow(3, 5, 2, 8) == -1  # 243 vs 256
    assert _cmp_pow(10, 100, 10, 100) == 0
    assert _cmp_pow(2, 0, 5, 3) == -1
    assert _cmp_pow(1, 5, 1, 9) == 0
    rng = random.Random(1)
    for _ in range(200):
        x, a = rng.randrange(2, 50), rng.randrange(0, 40)
        y, b = rng.randrange(2, 50), rng.randrange(0, 40)
        want = (x**a > y**b) - (x**a < y**b)
        assert _cmp_pow(x, a, y, b) == want


def test_theorem1_bound_exponent_collapse():
    N = 1000
    q_val = round(math.exp(math.log(N) ** 1.5))
    report = theorem1_bound(FactoredInteger.from_value(q_val), N)
    want = N * math.exp(-(160.0**-4))
    assert abs(report.bound_value - want) <= 1e-15 * want
    assert report.gamma == GAMMA_T1 and report.gamma1 == 900.0


def test_theorem1_bound_window_cases():
    q = FactoredInteger.from_factors([(3, 40)])
    report = theorem1_bound(q, 3**20)
    assert not report.applicable
    assert report.failed_conditions == ("lower_threshold",)

    report = theorem1_bound(q, 3**10)  # below d^15
    assert "kernel_threshold" in report.failed_conditions
    assert "upper_threshold" not in report.failed_conditions

    report = theorem1_bound(q, 3**21)  # above sqrt(q)
    assert "upper_threshold" in report.failed_conditions


def test_theorem1_bound_below_N():
    rng = random.Random(20)
    for _ in range(100):
        q = FactoredInteger.from_factors([(rng.choice([2, 3, 5]), rng.randrange(4, 40))])
        N = rng.randrange(2, 10**6)
        report = theorem1_bound(q, N)
        assert 0 < report.bound_value < N


def test_theorem1_bound_monotone_in_N():
    q = FactoredInteger.from_factors([(3, 40)])
    values = [theorem1_bound(q, N).bound_value for N in (10, 100, 10**4, 10**8, 10**12)]
    assert values == sorted(values)


def test_theorem2_bound_constants():
    q = FactoredInteger.from_factors([(2, 100)])
    report = theorem2_bound(q, 2**30, Fraction(1, 20))
    assert abs(report.gamma1 - 1200 * 400 * math.log(20) ** (2 / 3)) < 1e-6
    assert abs(report.gamma - 201.0**-4 * 20.0**-6 * math.log(20) ** 2) < 1e-20
    with pytest.raises(DeltaOutOfRange):
        theorem2_bound(q, 2**30, Fraction(1, 10))
    with pytest.raises(DeltaOutOfRange):
        theorem2_bound(q, 2**30, Fraction(1, 2))


def test_theorem2_bound_window_names():
    q = FactoredInteger.from_factors([(2, 100)])
    report = theorem2_bound(q, 2, Fraction(1, 20))  # N = 2 < d^2.05
    assert "kernel_threshold" in report.failed_conditions
    # N = 2^5 = 32 > q^(1/400) = 2^(1/4)
    report = theorem2_bound(q, 2**5, Fraction(1, 20))
    assert "upper_threshold" in report.failed_conditions
    # exact boundary: N = q^(delta/20) passes the upper check
    q = FactoredInteger.from_factors([(2, 400)])
    report = theorem2_bound(q, 2, Fraction(1, 20))
    assert "upper_threshold" not in report.failed_conditions


def test_proof_parameters_half_power():
    q = FactoredInteger.from_factors([(2, 40)])
    pp = proof_parameters(q, 2**20)
    assert pp.eps == Fraction(1, 14)
    assert pp.m == 28 and pp.tau == 280 and pp.k == 7840
    assert pp.kappa == 10
    assert pp.r1_positive and pp.r2_gap


def test_proof_parameters_seven_hundredths():
    q = FactoredInteger.from_factors([(2, 200)])
    pp = proof_parameters(q, 2**14)  # N = q^(7/100)
    assert pp.eps == Fraction(1, 100)
    assert pp.m == 200 and pp.r1 == 33 and pp.r2 == 66


def test_proof_parameters_h():
    q = FactoredInteger.from_factors([(10007, 4)])
    pp = proof_parameters(q, 10**4)
    assert pp.h == 11
    assert proof_parameters(q, 6**4).h == 7
    assert proof_parameters(q, 6**4 - 1).h == 6


def test_proof_parameters_irrational_ratio():
    # N = 1000 shares no proportional structure with q = 2^60
    q = FactoredInteger.from_factors([(2, 60)])
    pp = proof_parameters(q, 1000)
    # eps = (1/7) ln 1000 / ln q; m = floor(2/eps) must match float arithmetic
    eps_f = math.log(1000) / (7 * math.log(q.value))
    assert pp.m == math.floor(2 / eps_f)
    assert pp.r1 == math.floor(1 / 3 / eps_f)
    assert pp.r2 == math.floor(2 / 3 / eps_f)
    assert abs(float(pp.eps) - eps_f) < 1e-15
    # the stored rational reproduces the same exact floors
    assert pp.m == (2 / pp.eps).numerator // (2 / pp.eps).denominator


def test_proof_parameters_eps_boundary_consistency():
    # eps*14 <= 1 iff N <= sqrt(q), checked across the boundary
    q = FactoredInteger.from_factors([(3, 41)])
    for N in (3**20, 3**20 + 1, math.isqrt(3**41), math.isqrt(3**41) + 1, 3**21):
        pp = proof_parameters(q, N)
        assert (pp.eps * 14 <= 1) == (N * N <= 3**41), N


def test_proof_parameters_theorem2():
    q = FactoredInteger.from_factors([(2, 400)])
    pp = proof_parameters(q, 2**20, variant="theorem2", delta=Fraction(1, 20))
    # c = (1/100)(1 - 1/300) = 299/30000; eps = c/20
    assert pp.eps == Fraction(299, 30000) / 20
    assert pp.m == (2 * 600000) // 299
    assert pp.kappa == int(4 * math.log(20)) + 14
    assert pp.tau == pp.kappa * pp.m and pp.k == pp.m * pp.tau
    with pytest.raises(DeltaOutOfRange):
        proof_parameters(q, 2**20, variant="theorem2", delta=Fraction(3, 10))
    with pytest.raises(ValueError):
        proof_parameters(q, 2**20, variant="theorem2")
    with pytest.raises(ValueError):
        proof_parameters(q, 2**20, variant="nosuch")


def test_proof_parameters_validation():
    q = FactoredInteger.from_factors([(2, 10)])
    with pytest.raises(ValueError):
        proof_parameters(q, 1)
    with pytest.raises(ValueError):
        proof_parameters(q, 2**10)


def test_holder_constant():
    assert abs(holder_constant(1, 1) - 1024 ** (1 / 4)) < 1e-12
    v = holder_constant(7840, 28)
    assert v < 1.02
    # decreasing toward 1 along k = 10 m^2
    prev = v
    for m in (40, 60, 100):
        cur = holder_constant(10 * m * m, m)
        assert 1.0 < cur < prev
        prev = cur
    with pytest.raises(ValueError):
        holder_constant(3, 5)


def test_amplified_bound_h1():
    q = FactoredInteger.parse("3^6")
    spec = SumSpec(q, 27, 1, 0, 0)
    rhs, lhs, holds = amplified_bound(spec, Fraction(1, 2), 1)
    res = eval_sum(spec)
    qe = 3 ** (3 + 1)  # beta = floor(6/2) = 3
    assert holds
    assert abs(rhs - (res.terms_counted + qe)) < 1e-6
    assert abs(lhs - res.value.abs_value()) < 1e-12


def test_amplified_bound_desk_case():
    q = FactoredInteger.parse("3^6")
    spec = SumSpec(q, 27, 1, 0, 0)
    rhs, lhs, holds = amplified_bound(spec, Fraction(1, 2), 3)
    assert holds and lhs <= rhs


def test_amplified_bound_requires_alignment():
    q = FactoredInteger.parse("3^6")
    spec = SumSpec(q, 27, 1, 0, 7)
    with pytest.raises(ValueError):
        amplified_bound(spec, Fraction(1, 2), 3)
    aligned, _ = shift_to_kernel(spec)
    rhs, lhs, holds = amplified_bound(aligned, Fraction(1, 2), 3)
    assert holds


def test_amplified_bound_budget():
    q = FactoredInteger.parse("3^6")
    spec = SumSpec(q, 27, 1, 0, 0)
    with pytest.raises(BudgetExceeded):
        amplified_bound(spec, Fraction(1, 2), 3, budget=10)


def test_amplified_bound_threads_identical(monkeypatch):
    q = FactoredInteger.parse("2^10")
    spec = SumSpec(q, 32, 5, 3, 0)
    r1 = amplified_bound(spec, Fraction(1, 3), 3, threads=1)
    spec2 = SumSpec(q, 9000, 5, 3, 0)
    a = amplified_bound(spec2, Fraction(1, 3), 2, threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("amplified_bound started a process pool")

    # the threaded call must run in this process and give the same answer
    monkeypatch.setattr(klsum, "ProcessPoolExecutor", no_pool)
    b = amplified_bound(spec2, Fraction(1, 3), 2, threads=2)
    assert a == b
    assert r1[2]


def _amplified_rhs_reference(spec, eps, h):
    """h^-2 sum |w_direct(n)| + h^2 q_eps over the coprime window, and the term count."""
    ctx = make_context(spec.q, eps)
    d = kernel(spec.q).value
    ws = [
        w_direct(n, spec, ctx, h).abs_value()
        for n in range(1, spec.N + 1)
        if math.gcd(n + spec.c, d) == 1
    ]
    return math.fsum(ws) / (h * h) + h * h * ctx.q_eps.value, len(ws)


# table caps the gathered entries per block: 64 splits the window into
# several blocks; 16 is below the 30 distinct products of h = 8, so each
# block holds one base and the products are sliced, q_eps h^2 = 32768
# being far larger than one block.
@pytest.mark.parametrize(
    "q, eps, h, N, a, b, c, table",
    [
        ("2^10", Fraction(1, 3), 3, 300, 5, 3, 0, 64),
        ("3^8", Fraction(1, 2), 4, 200, 2, 7, -3 * 10**9, None),
        ("2^6*5^4", Fraction(1, 3), 5, 250, 7, 11, -10 * 1234, None),
        ("2^30*3^21", Fraction(1, 10), 3, 150, 5, 7, -6 * 10**20, 64),
        ("2^40", Fraction(1, 5), 8, 120, 12345, 678, 2 * 10**12, 16),
    ],
    ids=["blocks", "negative-c", "two-primes", "q-above-2^62", "sliced-products"],
)
def test_amplified_bound_matches_w_direct(monkeypatch, q, eps, h, N, a, b, c, table):
    if table is not None:
        monkeypatch.setattr(bounds, "_TABLE", table)
    spec = SumSpec(FactoredInteger.parse(q), N, a, b, c)
    rhs, lhs, holds = amplified_bound(spec, eps, h)
    want, count = _amplified_rhs_reference(spec, eps, h)
    assert abs(rhs - want) <= count * 2 * per_term_bound() + 1e-12 * want
    assert lhs == eval_sum(spec).value.abs_value()
    assert holds == (lhs <= rhs + 1e-6 * rhs)


def test_regime_report_concrete():
    rep = regime_report(FactoredInteger.from_factors([(3, 40)]))
    assert not rep["window_nonempty"]
    assert rep["binding_constraint"] == "lower_threshold"
    assert rep["d"] == 3
    rep = regime_report(FactoredInteger.from_value(4))
    assert not rep["window_nonempty"]
    assert abs(rep["crossover_ln_q"] - 1800.0**3) < 1e-3


def test_regime_report_symbolic():
    rep = regime_report(ln_q=8e9)
    assert rep["window_nonempty"]
    assert rep["q"] is None and rep["d"] is None
    rep = regime_report(ln_q=5e9)
    assert not rep["window_nonempty"]


def test_regime_report_theorem2():
    rep = regime_report(ln_q=1e12, delta=Fraction(1, 20))
    gamma1 = 1200 * 400 * math.log(20) ** (2 / 3)
    expected = (20 * gamma1 / 0.05) ** 3
    assert abs(rep["crossover_ln_q"] - expected) < 1e-9 * expected
    assert rep["variant"] == "theorem2"


def test_regime_report_validation():
    with pytest.raises(ValueError):
        regime_report()
    with pytest.raises(ValueError):
        regime_report(FactoredInteger.from_value(4), ln_q=5.0)

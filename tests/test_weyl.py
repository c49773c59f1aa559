from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from kls.factored import FactoredInteger
from kls.weyl import (
    DampingFactor,
    RationalApproximation,
    damping_factor,
    dist_to_int,
    geometric_sum_check,
    lemma3_check,
    rational_approx,
    v_r_sum,
)


def test_dist_to_int_frozen_cases():
    assert dist_to_int(Fraction(0)) == 0
    assert dist_to_int(Fraction(1, 2)) == Fraction(1, 2)
    assert dist_to_int(Fraction(7, 3)) == Fraction(1, 3)
    assert dist_to_int(0.25) == 0.25
    assert dist_to_int(-0.25) == 0.25
    assert dist_to_int(Fraction(-1, 3)) == Fraction(1, 3)


def test_dist_to_int_range():
    rng = random.Random(3)
    for _ in range(500):
        f = Fraction(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**6))
        d = dist_to_int(f)
        assert 0 <= d <= Fraction(1, 2)
        assert dist_to_int(f + 1) == d
        assert dist_to_int(-f) == d


def test_geometric_sum_frozen_cases():
    s, bound, holds = geometric_sum_check(Fraction(0), 5)
    assert abs(s.re - 5) < 1e-12 and bound == 5 and holds
    s, bound, holds = geometric_sum_check(Fraction(1, 2), 2)
    assert s.abs_value() < 1e-12 and bound == 2 and holds
    s, bound, holds = geometric_sum_check(Fraction(1, 3), 3)
    assert s.abs_value() < 1e-12 and bound == 3 and holds


def test_geometric_sum_matches_closed_form():
    rng = random.Random(8)
    for _ in range(100):
        B = rng.randrange(2, 500)
        A = rng.randrange(1, B)
        P = rng.randrange(1, 300)
        alpha = Fraction(A, B)
        s, bound, holds = geometric_sum_check(alpha, P)
        w = 2j * math.pi * A / B
        if dist_to_int(alpha) == 0:
            want = complex(P, 0)
        else:
            want = cmath.exp(w) * (cmath.exp(w * P) - 1) / (cmath.exp(w) - 1)
        assert abs(complex(s.re, s.im) - want) < 1e-8
        assert holds


def test_geometric_sum_inequality_random():
    rng = random.Random(12)
    for _ in range(1000):
        alpha = Fraction(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**6))
        P = rng.randrange(1, 2000)
        _, _, holds = geometric_sum_check(alpha, P)
        assert holds


def test_rational_approx_frozen_cases():
    r = rational_approx(Fraction(1, 3), 10)
    assert (r.A, r.Q, r.theta) == (1, 3, 0.0)
    r = rational_approx(0.333, 100)
    assert (r.A, r.Q) == (1, 3)
    assert abs(r.theta + 0.003) < 1e-6
    r = rational_approx((1 + math.sqrt(5)) / 2, 13)
    assert (r.A, r.Q) == (21, 13)
    assert abs(r.theta) <= 1


def test_rational_approx_properties():
    rng = random.Random(21)
    for _ in range(400):
        if rng.random() < 0.5:
            alpha = Fraction(rng.randrange(-(10**9), 10**9), rng.randrange(1, 10**9))
        else:
            alpha = rng.uniform(-100, 100) + math.sqrt(rng.randrange(2, 50))
        Q_max = rng.randrange(1, 10**4)
        r = rational_approx(alpha, Q_max)
        assert 1 <= r.Q <= Q_max
        assert math.gcd(r.A, r.Q) == 1
        assert abs(r.theta) <= 1
        # reconstruction: alpha = A/Q + theta/Q^2 within 2^-50
        back = r.A / r.Q + r.theta / (r.Q * r.Q)
        assert abs(float(alpha) - back) <= 2**-50 + abs(float(alpha)) * 2**-50


def test_rational_approx_validation():
    with pytest.raises(ValueError):
        rational_approx(0.5, 0)
    with pytest.raises(ValueError):
        RationalApproximation(2, 4, 0.0)
    with pytest.raises(ValueError):
        RationalApproximation(1, 2, 1.5)


def test_lemma3_frozen_cases():
    approx = rational_approx(Fraction(0), 1)
    lhs, rhs, holds = lemma3_check(Fraction(0), Fraction(1, 2), 10.0, 4, approx)
    assert lhs == 8.0 and rhs == 300.0 and holds

    approx = rational_approx(Fraction(1, 3), 10)
    lhs, rhs, holds = lemma3_check(Fraction(1, 3), Fraction(0), 100.0, 3, approx)
    assert lhs == 106.0
    assert abs(rhs - 6 * 2 * (100 + 3 * math.log(3))) < 1e-9
    assert holds


def test_lemma3_u_saturation():
    # U below every reciprocal distance: lhs = P*U
    approx = rational_approx(Fraction(1, 7), 7)
    lhs, rhs, holds = lemma3_check(Fraction(1, 7), Fraction(0), 1.5, 6, approx)
    assert lhs == 9.0 and holds


def test_lemma3_inequality_random():
    rng = random.Random(33)
    for _ in range(1000):
        if rng.random() < 0.5:
            alpha = Fraction(rng.randrange(-(10**4), 10**4), rng.randrange(1, 10**4))
        else:
            alpha = math.sqrt(rng.randrange(2, 100)) / rng.randrange(1, 10)
        beta = Fraction(rng.randrange(-100, 100), rng.randrange(1, 100))
        U = rng.uniform(0.5, 10**4)
        P = rng.randrange(1, 1000)
        approx = rational_approx(alpha, rng.randrange(max(1, P // 2), 10**4))
        lhs, rhs, holds = lemma3_check(alpha, beta, U, P, approx)
        assert holds, (alpha, beta, U, P, approx)


def test_damping_factor_cases():
    q = FactoredInteger.parse("3^4")
    f = damping_factor(q, FactoredInteger.from_value(1), 1, 1)
    assert abs(f.delta_r - 13.5 * math.log(81)) < 1e-9
    assert f.Delta_r == 1.0

    f = damping_factor(q, FactoredInteger.from_value(10**6), 10**6, 1, ln_q=1.0)
    assert abs(f.delta_r - 1.35e-5) < 1e-12
    assert f.Delta_r == f.delta_r

    # balanced point: Q_r = 2*Lambda_r makes both addends 1/sqrt(Q_r)
    lam = 5000
    f = damping_factor(q, FactoredInteger.from_value(2 * lam), lam, 2)
    want = 24 * math.log(81) / (2 * lam)
    assert abs(f.delta_r - want) < 1e-12


def test_damping_factor_product_form_identity():
    # (1/sqrt(Q) + sqrt(Q)/(2L))^2 == (1/Q + 1/(2L))(1 + Q/(2L))
    rng = random.Random(44)
    q = FactoredInteger.parse("2^10")
    for _ in range(200):
        Q = rng.randrange(1, 10**6)
        L = rng.randrange(1, 10**9)
        f = damping_factor(q, FactoredInteger.from_value(Q), L, 1)
        Qv = f.Q_r.value
        alt = 6 * math.log(q.value) * (1 / Qv + 1 / (2 * L)) * (1 + Qv / (2 * L))
        assert abs(f.delta_r - alt) <= 1e-12 * max(1.0, alt)


def test_damping_factor_huge_values_no_overflow():
    q = FactoredInteger.parse("2^10")
    f = damping_factor(q, FactoredInteger.from_factors([(2, 2000)]), 7**3000, 3)
    assert math.isfinite(f.delta_r) and f.delta_r >= 0


def test_v_r_sum_trivial_and_damped_bounds():
    rng = random.Random(55)
    q = FactoredInteger.parse("3^8")
    for _ in range(50):
        B = rng.randrange(2, 5000)
        A = rng.randrange(1, B)
        g = math.gcd(A, B)
        A, B = A // g, B // g
        if B == 1:
            continue
        lam = rng.randrange(2, 500)
        alpha = Fraction(A, B)
        v = v_r_sum(alpha, lam)
        assert v <= (2 * lam) ** 2 + 1e-6
        f = damping_factor(q, FactoredInteger.from_value(B), lam, 1)
        assert v <= (2 * lam) ** 2 * f.delta_r + 1e-6


def test_damping_factor_validation():
    q = FactoredInteger.parse("3^4")
    with pytest.raises(ValueError):
        damping_factor(q, FactoredInteger.from_value(1), 0, 1)


@pytest.mark.parametrize(
    "alpha, P",
    [(Fraction(1, 2**62 + 1), 300), (Fraction(2**61 + 12345, 2**62 + 135), 2000)],
)
def test_geometric_sum_fallback_within_err(alpha, P):
    # B >= 2^62 leaves the int64 path; the fallback must still meet its err
    s, bound, holds = geometric_sum_check(alpha, P)
    A, B = alpha.numerator, alpha.denominator
    with mpmath.workdps(40):
        want = mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * (A * n % B)) / B) for n in range(1, P + 1))
        assert abs(mpmath.mpc(s.re, s.im) - want) <= s.err
    assert s.err == P * 2.0**-46 and holds

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _lemma3_lhs_reference(alpha, beta, U, P):
    """lemma3_check's lhs as one residue step per term, summed with fsum."""
    afr, bfr = Fraction(alpha), Fraction(beta)
    B = math.lcm(afr.denominator, bfr.denominator)
    A = afr.numerator * (B // afr.denominator) % B
    C = bfr.numerator * (B // bfr.denominator) % B
    ufr = Fraction(U)
    un, ud = ufr.numerator, ufr.denominator

    def terms():
        r = C
        for _ in range(P):
            r = (r + A) % B
            k = r if 2 * r <= B else B - r
            yield U if k == 0 or un * k <= B * ud else B / k

    return math.fsum(terms())


def _v_r_sum_reference(alpha, Lambda):
    alpha = Fraction(alpha)
    B = alpha.denominator
    A = alpha.numerator % B
    U = 2 * Lambda

    def terms():
        yield U
        r = 0
        for _ in range(Lambda - 1):
            r = (r + A) % B
            k = r if 2 * r <= B else B - r
            yield 2 * (U if k == 0 or U * k <= B else B / k)

    return math.fsum(terms())


def _assert_lemma3_matches_reference(alpha, beta, U, P):
    approx = rational_approx(alpha, 100)
    lhs, rhs, holds = lemma3_check(alpha, beta, U, P, approx)
    want = _lemma3_lhs_reference(alpha, beta, U, P)
    assert lhs == want, (alpha, beta, U, P, lhs, want)
    assert holds == (lhs <= rhs)


@settings(max_examples=150, deadline=None)
@given(
    bits=st.sampled_from([8, 30, 52, 53, 54, 63, 64, 90]),
    a=st.integers(0, 2**90),
    den=st.integers(1, 2**90),
    beta=st.fractions(max_denominator=2**40),
    U=st.one_of(st.integers(1, 2**62), st.floats(1e-3, 1e6)),
    P=st.integers(1, 400),
)
def test_lemma3_and_v_r_sum_equal_reference_property(bits, a, den, beta, U, P):
    alpha = Fraction(a, den % 2**bits + 1)
    _assert_lemma3_matches_reference(alpha, beta, U, P)
    assert v_r_sum(alpha, P) == _v_r_sum_reference(alpha, P)


# Each pair straddles one bound of the int64 route (B < 2^53, C + A P < 2^63,
# un B < 2^63, B ud < 2^63): the first case stays inside, the second does not.
@pytest.mark.parametrize(
    "alpha, beta, U, P",
    [
        # a single term B/k, which float(B)/k would round differently above 2^53
        (Fraction(3002399751580331, 2**53 - 1), Fraction(0), 7, 1),
        (Fraction(3002399751580333, 2**53 + 1), Fraction(0), 7, 1),
        (Fraction(2**52 + 12345, 2**53 - 1), Fraction(0), 7, 300),
        (Fraction(2**52 + 12345, 2**53 + 1), Fraction(0), 7, 300),
        # 8309 A < 2^63 <= 8310 A, and every term B/k < 7 < U
        (Fraction(1110000000000013, 3 * 10**15 + 7), Fraction(0), 1000, 8309),
        (Fraction(1110000000000013, 3 * 10**15 + 7), Fraction(0), 1000, 8310),
        (Fraction(2**51 + 1, 2**51 + 3), Fraction(1, 2**51 + 3), 2**11, 50),
        (Fraction(2**51 + 1, 2**51 + 3), Fraction(1, 2**51 + 3), 2**12, 50),
        (Fraction(3, 2**40 + 1), Fraction(-5, 7), 0.375, 500),
        (Fraction(3, 2**40 + 1), Fraction(-5, 7), 0.1, 500),
        (Fraction(1, 2), Fraction(1, 3), 2**70 + 1, 20),
    ],
)
def test_lemma3_and_v_r_sum_equal_reference_across_int64_guard(alpha, beta, U, P):
    _assert_lemma3_matches_reference(alpha, beta, U, P)
    assert v_r_sum(alpha, P + 1) == _v_r_sum_reference(alpha, P + 1)


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

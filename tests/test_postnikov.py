from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from kls.errors import NotCoprime
from kls.factored import FactoredInteger, mod_inverse, unit_root
from kls.klsum import SumSpec
from kls.postnikov import (
    denominator_Q_r,
    inverse_expansion,
    make_context,
    w_direct,
    w_poly,
    weyl_coefficients,
)

from oracles import naive_w


def ctx_for(q_text: str, eps: Fraction):
    return make_context(FactoredInteger.parse(q_text), eps)


def random_powerful(rng: random.Random, max_primes=4, max_exp=32, limit=2**128) -> FactoredInteger:
    primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23], rng.randrange(1, max_primes + 1))
    while True:
        pairs = [(p, rng.randrange(1, max_exp + 1)) for p in primes]
        n = FactoredInteger.from_factors(pairs)
        if n.value <= limit:
            return n
        max_exp = max(1, max_exp // 2)


def test_make_context_frozen_cases():
    ctx = ctx_for("3^4", Fraction(1, 2))
    assert ctx.m == 4 and ctx.q_eps.value == 27 and ctx.beta == (2,)
    ctx = ctx_for("2^10", Fraction(1, 5))
    assert ctx.m == 10 and ctx.beta == (2,) and ctx.q_eps.value == 8
    ctx = ctx_for("7", Fraction(1, 2))
    assert ctx.m == 4 and ctx.q_eps.value == 7


def test_make_context_divisibility():
    rng = random.Random(31)
    for _ in range(200):
        q = random_powerful(rng)
        eps = Fraction(rng.randrange(1, 9), rng.randrange(9, 18))
        ctx = make_context(q, eps)
        assert ctx.q.divides(FactoredInteger.from_factors(
            (p, a * (ctx.m + 1)) for p, a in ctx.q_eps.factors
        ))


def test_inverse_expansion_frozen_cases():
    ctx = ctx_for("3^4", Fraction(1, 2))
    assert inverse_expansion(0, ctx) == 1
    assert inverse_expansion(1, ctx) == 55
    assert mod_inverse(28, 81) == 55
    ctx = ctx_for("2^6", Fraction(1, 3))
    assert inverse_expansion(3, ctx) == 41
    assert mod_inverse(25, 64) == 41


def test_inverse_expansion_random():
    rng = random.Random(17)
    for _ in range(300):
        q = random_powerful(rng)
        eps = rng.choice([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
        ctx = make_context(q, eps)
        z = rng.randrange(0, q.value)
        inv = inverse_expansion(z, ctx)
        assert inv * (1 + z * ctx.q_eps.value) % q.value == 1
        assert inverse_expansion(z + q.value, ctx) == inv


def test_weyl_coefficients_frozen_case():
    q = FactoredInteger.parse("3^4")
    spec = SumSpec(q, 30, 1, 0, 0)
    ctx = make_context(q, Fraction(1, 2))
    co = weyl_coefficients(28, spec, ctx)
    assert co.v == 55
    assert co.a_r[0] == 54
    assert co.phase == 55
    assert co.alpha_r[0] == Fraction(54, 81)
    # r >= 2 sign pattern: a_r = (-1)^r a v^(r+1) q_eps^r
    for r in range(2, ctx.m + 1):
        want = pow(-1, r) * 1 * pow(55, r + 1, 81) * pow(27, r, 81) % 81
        assert co.a_r[r - 1] == want % 81


def test_weyl_coefficients_collapsed_v():
    q = FactoredInteger.parse("5^4")
    spec = SumSpec(q, 10, 3, 0, 0)
    ctx = make_context(q, Fraction(1, 2))
    co = weyl_coefficients(1, spec, ctx)  # n + c = 1, v = 1
    qv, qe = q.value, ctx.q_eps.value
    assert co.v == 1
    assert co.a_r[0] == (-3 * qe) % qv
    for r in range(2, ctx.m + 1):
        assert co.a_r[r - 1] == pow(-1, r) * 3 * qe**r % qv


def test_weyl_coefficients_zero_a1():
    q = FactoredInteger.parse("3^4")
    ctx = make_context(q, Fraction(1, 2))
    # choose b = a * v^2 so the first coefficient cancels
    v = mod_inverse(28, 81)
    spec = SumSpec(q, 30, 1, v * v % 81, 0)
    co = weyl_coefficients(28, spec, ctx)
    assert co.a_r[0] == 0 and co.alpha_r[0] == 0


def test_weyl_coefficients_noncoprime():
    q = FactoredInteger.parse("3^4")
    spec = SumSpec(q, 30, 1, 0, 0)
    ctx = make_context(q, Fraction(1, 2))
    with pytest.raises(NotCoprime):
        weyl_coefficients(27, spec, ctx)


def test_w_direct_h1_and_bound():
    q = FactoredInteger.parse("3^4")
    spec = SumSpec(q, 30, 1, 2, 0)
    ctx = make_context(q, Fraction(1, 2))
    w = w_direct(1, spec, ctx, 1)
    arg = (1 * mod_inverse(1 + 27, 81) + 2 * 27) % 81
    z = unit_root(arg, 81)
    assert abs(w.re - z.real) < 1e-14 and abs(w.im - z.imag) < 1e-14
    for h in (2, 5, 9):
        w = w_direct(1, spec, ctx, h)
        assert w.abs_value() <= h * h + w.err


def test_w_direct_matches_naive():
    rng = random.Random(23)
    for _ in range(25):
        q = random_powerful(rng, max_primes=2, max_exp=6, limit=10**7)
        if q.value < 4:
            continue
        eps = rng.choice([Fraction(1, 3), Fraction(1, 2)])
        ctx = make_context(q, eps)
        a = rng.randrange(1, q.value)
        while math.gcd(a, q.value) != 1:
            a = rng.randrange(1, q.value)
        spec = SumSpec(q, 50, a, rng.randrange(0, q.value), rng.randrange(0, 50))
        n = rng.randrange(1, 50)
        if math.gcd(n + spec.c, q.value) != 1:
            continue
        h = rng.randrange(1, 12)
        w = w_direct(n, spec, ctx, h)
        want = naive_w(q.value, ctx.q_eps.value, spec.a, spec.b, n + spec.c, h)
        assert abs(complex(w.re, w.im) - want) <= 1e-10


def test_w_poly_trivial_cases():
    q = FactoredInteger.parse("3^4")
    ctx = make_context(q, Fraction(1, 2))
    spec = SumSpec(q, 30, 1, mod_inverse(28, 81) ** 2 % 81, 0)
    co = weyl_coefficients(28, spec, ctx)
    # zero out everything by hand to check the all-zero case
    zero = type(co)(co.m, (0,) * co.m, (Fraction(0),) * co.m, co.v, co.phase, co.ctx)
    for h in (1, 3, 7):
        w = w_poly(zero, h)
        assert abs(w.re - h * h) < 1e-12 and abs(w.im) < 1e-12
    w1 = w_poly(co, 1)
    arg = sum(f for f in co.alpha_r) % 1
    assert abs(complex(w1.re, w1.im) - complex(math.cos(2 * math.pi * arg), math.sin(2 * math.pi * arg))) < 1e-12


def test_w_identity_frozen_case():
    q = FactoredInteger.parse("3^4")
    spec = SumSpec(q, 30, 1, 0, 0)
    ctx = make_context(q, Fraction(1, 2))
    co = weyl_coefficients(1, spec, ctx)
    lhs = w_direct(1, spec, ctx, 3)
    pw = w_poly(co, 3)
    ph = unit_root(co.phase, 81)
    rhs = ph * complex(pw.re, pw.im)
    assert abs(complex(lhs.re, lhs.im) - rhs) <= 1e-10


def test_w_identity_random():
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        q = random_powerful(rng, max_primes=2, max_exp=10, limit=10**9)
        if q.value < 4:
            continue
        eps = rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)])
        ctx = make_context(q, eps)
        a = rng.randrange(1, min(q.value, 10**6))
        while math.gcd(a, q.value) != 1:
            a = rng.randrange(1, min(q.value, 10**6))
        spec = SumSpec(q, 100, a, rng.randrange(0, q.value), rng.randrange(-30, 30))
        n = rng.randrange(1, 100)
        if math.gcd(n + spec.c, q.value) != 1:
            continue
        h = rng.randrange(1, 41)
        co = weyl_coefficients(n, spec, ctx)
        lhs = w_direct(n, spec, ctx, h)
        pw = w_poly(co, h)
        rhs = unit_root(co.phase, q.value) * complex(pw.re, pw.im)
        assert abs(complex(lhs.re, lhs.im) - rhs) <= 1e-9
        checked += 1


def test_denominator_frozen_case_r1():
    q = FactoredInteger.parse("3^4")
    spec = SumSpec(q, 30, 1, 0, 0)
    ctx = make_context(q, Fraction(1, 2))
    co = weyl_coefficients(28, spec, ctx)
    exact, formula = denominator_Q_r(co, 1)
    # a_1 = 54 = 2*27, gcd(54, 81) = 27, exact = 3; formula: max(0, 4-3) = 1
    assert exact.value == 3 and formula.value == 3


def test_denominator_frozen_case_r2():
    q = FactoredInteger.parse("2^10")
    spec = SumSpec(q, 30, 1, 0, 0)
    ctx = make_context(q, Fraction(1, 5))
    co = weyl_coefficients(1, spec, ctx)
    exact, formula = denominator_Q_r(co, 2)
    # a_2 = v^3 q_eps^2 = 2^6 units, exact = 2^4; formula max(0, 10 - 2*3) = 4
    assert exact.value == 16 and formula.value == 16


def test_denominator_zero_numerator():
    q = FactoredInteger.parse("3^4")
    ctx = make_context(q, Fraction(1, 2))
    v = mod_inverse(28, 81)
    spec = SumSpec(q, 30, 1, v * v % 81, 0)
    co = weyl_coefficients(28, spec, ctx)
    exact, _ = denominator_Q_r(co, 1)
    assert exact.value == 1


def test_denominator_sandwich_random():
    rng = random.Random(15)
    trials = 0
    while trials < 60:
        q = random_powerful(rng, max_primes=2, max_exp=8, limit=10**8)
        if q.value < 4:
            continue
        eps = rng.choice([Fraction(1, 3), Fraction(1, 2)])
        ctx = make_context(q, eps)
        d = math.prod(p for p, _ in q.factors)
        a = rng.randrange(1, q.value)
        while math.gcd(a, q.value) != 1:
            a = rng.randrange(1, q.value)
        spec = SumSpec(q, 60, a, rng.randrange(0, q.value), 0)
        n = rng.randrange(1, 60)
        if math.gcd(n, q.value) != 1:
            continue
        co = weyl_coefficients(n, spec, ctx)
        qv, qe = q.value, ctx.q_eps.value
        r1_clean = math.gcd(spec.b - a * co.v * co.v, d) == 1
        for r in range(1, co.m + 1):
            exact, _ = denominator_Q_r(co, r)
            if r >= 2 or r1_clean:
                assert exact.value * qe**r >= qv
                assert exact.value * qe <= qv
        trials += 1


def test_weyl_coefficients_vanish_exactly_when_q_divides_q_eps_power():
    # a_r = +-a v^(r+1) q_eps^r with a, v units, so a_r = 0 iff q | q_eps^r;
    # m = floor(2/eps) always gives q | q_eps^m, so a_m is always 0
    rng = random.Random(14)
    for _ in range(300):
        q = random_powerful(rng, max_exp=16, limit=2**96)
        eps = Fraction(rng.randrange(1, 9), rng.randrange(9, 18))
        ctx = make_context(q, eps)
        qv, qe = q.value, ctx.q_eps.value
        a = rng.randrange(1, qv)
        while math.gcd(a, qv) != 1:
            a = rng.randrange(1, qv)
        spec = SumSpec(q, 1, a, rng.randrange(qv), rng.randrange(-qv, qv))
        n = rng.randrange(1, 10**6)
        while math.gcd(n + spec.c, qv) != 1:
            n = rng.randrange(1, 10**6)
        co = weyl_coefficients(n, spec, ctx)
        assert co.a_r[-1] == 0
        for r in range(2, co.m + 1):
            assert (co.a_r[r - 1] == 0) == (qe**r % qv == 0)
            if co.a_r[r - 1] == 0:
                assert denominator_Q_r(co, r)[0].value == 1


def test_denominator_index_range():
    q = FactoredInteger.parse("3^4")
    spec = SumSpec(q, 30, 1, 0, 0)
    ctx = make_context(q, Fraction(1, 2))
    co = weyl_coefficients(28, spec, ctx)
    with pytest.raises(IndexError):
        denominator_Q_r(co, 0)
    with pytest.raises(IndexError):
        denominator_Q_r(co, co.m + 1)

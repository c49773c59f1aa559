from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kls.errors import NotCoprime
from kls.factored import (
    ComplexEstimate,
    FactoredInteger,
    e_q,
    is_prime,
    kernel,
    mod_inverse,
    per_term_bound,
    q_epsilon,
    unit_root,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime((1 << 61) - 1)
    # Carmichael number
    assert not is_prime(566)
    assert not is_prime(561)


def test_is_prime_rejects_huge():
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_from_value_and_str():
    n = FactoredInteger.from_value(72)
    assert n.factors == ((2, 3), (3, 2))
    assert str(n) == "2^3*3^2"
    assert int(n) == 72
    assert str(FactoredInteger.from_value(30)) == "2*3*5"
    assert str(FactoredInteger.from_value(1)) == "1"


def test_parse_roundtrip():
    rng = random.Random(101)
    primes = [2, 3, 5, 7, 11, 13, 101]
    for _ in range(200):
        pairs = [(p, rng.randrange(1, 5)) for p in rng.sample(primes, rng.randrange(1, 4))]
        n = FactoredInteger.from_factors(pairs)
        assert FactoredInteger.parse(str(n)) == n
        assert FactoredInteger.from_value(n.value) == n


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 13, 101, 65537, 2**31 - 1, 2**61 - 1]),
        st.integers(2, 60),
        min_size=1,
        max_size=5,
    )
)
def test_parse_round_trips_powerful_factorizations(exponents):
    q = FactoredInteger.from_factors(exponents.items())
    assert FactoredInteger.parse(str(q)) == q


def test_parse_plain_integer():
    assert FactoredInteger.parse("81").factors == ((3, 4),)
    assert FactoredInteger.parse("2^6*5^3").value == 8000


def test_validation_rejects_bad_factorizations():
    with pytest.raises(ValueError):
        FactoredInteger(((4, 1),), 4)  # 4 is not prime
    with pytest.raises(ValueError):
        FactoredInteger(((3, 1), (2, 1)), 6)  # out of order
    with pytest.raises(ValueError):
        FactoredInteger(((2, 2),), 8)  # wrong value
    with pytest.raises(ValueError):
        FactoredInteger.from_value(0)


def test_kernel_frozen_cases():
    assert kernel(FactoredInteger.parse("3^4")).value == 3
    assert kernel(FactoredInteger.from_value(72)).value == 6
    assert kernel(FactoredInteger.from_value(30)).value == 30


def test_q_epsilon_frozen_cases():
    qe, beta = q_epsilon(FactoredInteger.parse("3^4"), Fraction(1, 2))
    assert qe.value == 27 and beta == [2]
    qe, beta = q_epsilon(FactoredInteger.parse("2^6*5^3"), Fraction(1, 3))
    assert qe.value == 200 and beta == [2, 1]


def test_q_epsilon_divides_q_times_kernel():
    rng = random.Random(7)
    for _ in range(100):
        pairs = [(p, rng.randrange(1, 9)) for p in rng.sample([2, 3, 5, 7, 11], rng.randrange(1, 4))]
        q = FactoredInteger.from_factors(pairs)
        eps = Fraction(rng.randrange(1, 6), rng.randrange(6, 12))
        qe, beta = q_epsilon(q, eps)
        qk = FactoredInteger.from_factors(list(q.factors) + [(p, 1) for p, _ in q.factors])
        assert qe.divides(qk)
        for (p, a), b in zip(q.factors, beta):
            assert b == math.floor(eps * a)
            assert qe.exponent_of(p) == b + 1


def test_q_epsilon_rejects_bad_eps():
    q = FactoredInteger.parse("3^4")
    for eps in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError):
            q_epsilon(q, eps)


def test_mod_inverse_frozen_cases():
    assert mod_inverse(28, 81) == 55
    with pytest.raises(NotCoprime) as exc:
        mod_inverse(3, 9)
    assert exc.value.n == 3 and exc.value.q == 9


def test_mod_inverse_property():
    rng = random.Random(13)
    for _ in range(500):
        q = rng.randrange(2, 10**6)
        n = rng.randrange(1, q)
        if math.gcd(n, q) == 1:
            v = mod_inverse(n, q)
            assert 1 <= v < q and n * v % q == 1
        else:
            with pytest.raises(NotCoprime):
                mod_inverse(n, q)


def test_unit_root_quarter_turns_exact():
    assert unit_root(0, 4) == complex(1.0, 0.0)
    assert unit_root(1, 4) == complex(0.0, 1.0)
    assert unit_root(2, 4) == complex(-1.0, 0.0)
    assert unit_root(3, 4) == complex(0.0, -1.0)


def test_e_q_frozen_cases():
    for q in (1, 5, 81):
        z = e_q(0, q)
        assert z.re == 1.0 and z.im == 0.0
    z = e_q(1, 4)
    assert z.re == 0.0 and z.im == 1.0
    z = e_q(3, 8)
    s = math.sqrt(2) / 2
    assert abs(z.re + s) < 1e-15 and abs(z.im - s) < 1e-15


def test_e_q_properties():
    rng = random.Random(41)
    for _ in range(300):
        q = rng.randrange(1, 10**9)
        v = rng.randrange(-(10**12), 10**12)
        z = e_q(v, q)
        w = e_q(-v, q)
        assert abs(z.abs_value() - 1.0) < 1e-14
        # conjugation symmetry
        assert abs(z.re - w.re) < 1e-14 and abs(z.im + w.im) < 1e-14
        # period q
        z2 = e_q(v + 3 * q, q)
        assert z.re == z2.re and z.im == z2.im


def test_per_term_bound():
    assert per_term_bound() == 2.0**-46
    assert per_term_bound(46) == 2.0**-39
    with pytest.raises(ValueError):
        per_term_bound(64)


@given(st.integers(1, 53), st.integers(1, 53))
def test_per_term_bound_never_shrinks_as_precision_drops(p, p2):
    lo, hi = sorted((p, p2))
    assert per_term_bound(lo) >= per_term_bound(hi)


def test_complex_estimate():
    z = ComplexEstimate(3.0, 4.0, 1e-12)
    assert z.abs_value() == 5.0
    with pytest.raises(ValueError):
        ComplexEstimate(0.0, 0.0, -1.0)

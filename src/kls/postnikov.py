"""Inverse expansion mod powerful moduli and the smoothed-sum reduction.

For q with every prime raised to a decent power, inverses of 1 + z*q_eps
are given exactly by a short truncated geometric series mod q.  That
expansion turns the smoothed window sum W into a bivariate polynomial
exponential sum with explicit coefficients a_r, whose reduced
denominators Q_r drive all later estimates.  This module computes each
of these objects exactly and cross-checks the expansion multiplicatively
on every call.

Both evaluations of W depend on x, y only through u = x*y: each takes
one exact argument per distinct u, turns it into a unit point with
``klsum._unit_points`` and sums the points weighted by their pair counts
tau_h(u) with ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .errors import DivisibilityFailure, NotCoprime
from .factored import (
    ComplexEstimate,
    FactoredInteger,
    mod_inverse,
    per_term_bound,
    q_epsilon,
)
from .klsum import SumSpec, _phases, _unit_points


@dataclass(frozen=True)
class PostnikovContext:
    """Everything the inverse expansion needs: eps, m, q, q_eps, beta.

    m = floor(2/eps) exactly; q divides q_eps^(m+1).  Build through
    make_context, which verifies the divisibility prime by prime.
    """

    eps: Fraction
    m: int
    q: FactoredInteger
    q_eps: FactoredInteger
    beta: tuple[int, ...]


@dataclass(frozen=True)
class WeylCoefficients:
    """Coefficients of the polynomial phase produced by the reduction.

    a_r are residues mod q (index r-1 holds a_r), alpha_r = a_r/q in
    lowest terms, v is the inverse of the window point, and phase = a*v
    mod q is the constant unit factor split off the polynomial sum.
    """

    m: int
    a_r: tuple[int, ...]
    alpha_r: tuple[Fraction, ...]
    v: int
    phase: int
    ctx: PostnikovContext


def make_context(q: FactoredInteger, eps: Fraction) -> PostnikovContext:
    """Build the expansion context, verifying q | q_eps^(m+1) per prime.

    The verification is the exponent inequality (m+1)(beta_r+1) >= alpha_r;
    it holds for every 0 < eps < 1, so a DivisibilityFailure here means an
    implementation bug, not bad input.
    """
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    m = (2 * eps.denominator) // eps.numerator
    q_eps, beta = q_epsilon(q, eps)
    for (p, alpha), b in zip(q.factors, beta):
        if (m + 1) * (b + 1) < alpha:
            raise DivisibilityFailure(
                f"(m+1)(beta+1) = {(m + 1) * (b + 1)} < {alpha} at prime {p} "
                f"(q={q}, eps={eps})"
            )
    return PostnikovContext(eps, m, q, q_eps, tuple(beta))


def inverse_expansion(z: int, ctx: PostnikovContext) -> int:
    """(1 + z*q_eps)^(-1) mod q via the truncated alternating series.

    Returns sum of (-1)^j (z*q_eps)^j for j = 0..m, reduced mod q, and
    checks multiplicatively that it inverts 1 + z*q_eps.  Periodic in z
    with period q.
    """
    q = ctx.q.value
    t = z * ctx.q_eps.value % q
    acc = 1
    for _ in range(ctx.m):
        acc = (1 - t * acc) % q
    assert acc * (1 + t) % q == 1, "expansion failed to invert; implementation bug"
    return acc


def weyl_coefficients(n: int, spec: SumSpec, ctx: PostnikovContext) -> WeylCoefficients:
    """Exact polynomial-phase coefficients at window point n.

    v = (n+c)^(-1) mod q; a_1 = q_eps*(b - a*v^2); for r >= 2,
    a_r = (-1)^r a v^(r+1) q_eps^r, all mod q.  As a and v are units, a_r = 0
    for r >= 2 exactly when q | q_eps^r, which always holds at r = m
    (beta_p + 1 > eps alpha_p and m eps > 2 - eps > 1), so a_m is always 0.
    """
    if ctx.q != spec.q:
        raise ValueError("context was built for a different modulus")
    q = spec.q.value
    qe = ctx.q_eps.value
    v = mod_inverse(n + spec.c, q)
    t = qe * v % q * v % q * spec.a % q  # a * v^2 * q_eps
    a_list = [(qe * spec.b - t) % q]
    sign = 1
    for _ in range(2, ctx.m + 1):
        t = t * v % q * qe % q
        a_list.append(t if sign > 0 else (-t) % q)
        sign = -sign
    alpha = tuple(Fraction(ar, q) for ar in a_list)
    return WeylCoefficients(ctx.m, tuple(a_list), alpha, v, spec.a * v % q, ctx)


@lru_cache(maxsize=4)
def _product_counts(h: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, tau), read-only: the distinct products x*y over x, y in [1, h] and their pair counts."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    r = np.arange(1, h + 1, dtype=np.int64)
    u, tau = np.unique(np.multiply.outer(r, r), return_counts=True)
    u.flags.writeable = tau.flags.writeable = False
    return u, tau


def _tau_sum(h: int, args: list[int], tau: np.ndarray, q: int) -> ComplexEstimate:
    """The h-by-h grid sum of e_q(args[i]) over the pairs x*y = u_i of _product_counts(h)."""
    cos, sin = _unit_points(q, args)
    return ComplexEstimate(
        math.fsum((tau * cos).tolist()),
        math.fsum((tau * sin).tolist()),
        h * h * per_term_bound(),
    )


def w_direct(n: int, spec: SumSpec, ctx: PostnikovContext, h: int) -> ComplexEstimate:
    """The h-by-h smoothed sum at window point n, from its definition.

    Sum over x, y in [1,h] of e_q(a*(n+c+q_eps*x*y)* + b*q_eps*x*y).  The
    arguments a m* + b m at m = n+c+q_eps*u come from one batched
    inversion over the distinct products u; b*(n+c) is subtracted
    exactly and each argument reduced mod q before the one float
    conversion.
    """
    q = spec.q.value
    qe = ctx.q_eps.value
    base = n + spec.c
    if math.gcd(base, q) != 1:
        raise NotCoprime(base, q)
    us, tau = _product_counts(h)
    ms = [(base + qe * u) % q for u in us.tolist()]
    shift = spec.b * base
    args = [(v - shift) % q for v in _phases(q, spec.a, spec.b, ms)]
    return _tau_sum(h, args, tau, q)


def w_poly(coeffs: WeylCoefficients, h: int) -> ComplexEstimate:
    """The polynomial Weyl sum: sum over x, y in [1,h] of e(sum alpha_r (xy)^r).

    Each grid point's phase is assembled as a single exact rational mod 1
    (integer Horner evaluation of the a_r at xy, mod q, over q) and
    converted to floating point once.
    """
    q = coeffs.ctx.q.value
    a_rev = coeffs.a_r[::-1]
    us, tau = _product_counts(h)
    args = []
    for u in us.tolist():
        arg = 0
        for ar in a_rev:
            arg = (arg + ar) * u % q
        args.append(arg)
    return _tau_sum(h, args, tau, q)


def denominator_Q_r(coeffs: WeylCoefficients, r: int) -> tuple[FactoredInteger, FactoredInteger]:
    """Reduced denominator of alpha_r, exact and by the exponent formula.

    Returns (exact, formula): exact = q / gcd(a_r, q), factored over q's
    primes; formula = prod p^max(0, alpha_p - r*e_p) with e_p the exponent
    of p in q_eps.  For r >= 2 the two agree (asserted as divisibility)
    and q <= exact * q_eps^r; at r = 1 the numerator b - a v^2 may cancel
    arbitrarily, so nothing is asserted there.
    """
    ctx = coeffs.ctx
    if not 1 <= r <= coeffs.m:
        raise IndexError(f"r must be in [1, {coeffs.m}], got {r}")
    q = ctx.q.value
    g = math.gcd(coeffs.a_r[r - 1], q)
    exact_val = q // g
    exact_pairs = []
    for p, _ in ctx.q.factors:
        e = 0
        while exact_val % p == 0:
            exact_val //= p
            e += 1
        if e:
            exact_pairs.append((p, e))
    assert exact_val == 1
    exact = FactoredInteger.from_factors(exact_pairs)
    formula = FactoredInteger.from_factors(
        (p, max(0, alpha - r * (b + 1)))
        for (p, alpha), b in zip(ctx.q.factors, ctx.beta)
        if alpha - r * (b + 1) > 0
    )
    if r >= 2:
        assert exact.divides(formula), "reduced denominator escaped the formula lattice"
        assert q <= exact.value * ctx.q_eps.value**r, "denominator below the guaranteed floor"
    return exact, formula

"""Exact arithmetic over integers with known prime factorization.

This module is the arithmetic kernel of the package: factored moduli,
the squarefree kernel, the smoothing modulus, modular inverses, and
complex exponentials evaluated from exact integer arguments.

Rationals are plain ``fractions.Fraction`` values throughout the package;
all floor computations on them are exact.

Rounding model
--------------
Floating-point results are carried as :class:`ComplexEstimate` values whose
``err`` field is a guaranteed bound on ``|computed - exact|``:

* every unit-circle value ``e(v/q)`` is produced from an exactly reduced
  integer argument ``v mod q``, and its rounding stays below ``2^-48`` in
  absolute value on IEEE-754 doubles (``u = 2^-53``).  :func:`unit_root`,
  for single values, reduces the quadrant exactly and calls libm sin/cos
  on ``[0, pi/2)``.  Every vectorised sum (``klsum``, ``postnikov``,
  ``bounds``, ``weyl``) goes through ``klsum._turn_points`` instead: from
  ``t = TURN v / q`` in ``[0, TURN]``, ``TURN = 2^10``, it takes
  ``i = floor(t)`` and ``r = t - i`` and returns ``T[i] E(r)``, a table
  entry for ``e(i / TURN)`` times polynomials for ``e(r / TURN)``.  Term by
  term, as complex moduli:

  - forming ``t``: ``klsum._unit_points`` scales the correctly rounded
    ``v/q`` by ``TURN``, which is exact, so the angle ``2 pi t / TURN`` is
    off by at most ``2 pi * u/2 < 3.15 u``.  The difference kernel's
    ``fl(fl(v) * fl(TURN / q))`` has three roundings, at most ``3.0000001 u``
    relative, so its angle is off by less than ``6 pi * 1.0000001 u <
    18.9 u``.  ``i`` and ``r`` are then exact (Sterbenz), and a point is
    off by no more than its angle;
  - table: libm evaluates the first octant at ``fl(fl(pi/4) * j/128)``,
    within ``2 u * pi/4 < 1.58 u`` of the true angle, to at most 1 ulp
    ``<= u`` per component (the table test checks every entry against
    mpmath); the other entries are exact reflections.  So
    ``|T^ - T| < 1.58 u + sqrt(2) u < 3 u``;
  - polynomials: with ``x = 2 pi r / TURN < 2 pi / 1024``, cos to degree 4
    is truncated by at most ``x^6 / 720 < 0.67 u`` and sin to degree 5 by
    ``x^7 / 5040 < 0.001 u``.  Adding the leading 1 rounds by at most
    ``u``; every other operation acts on terms below ``1.9e-5`` (cos) or
    ``0.0062`` (sin), with coefficients within a few ``u`` relative, and
    adds less than ``0.07 u``.  So ``|E^ - E| < 1.7 u``, and
    ``|T^ E^ - T E| <= |T^| |E^ - E| + |T^ - T| < 4.71 u``;
  - product: each component is two products and a difference of values of
    modulus at most ``1 + 4 u``, so it rounds by at most ``2.02 u``, less
    than ``2.86 u`` as a complex number.

  A point is therefore off by less than ``3.15 + 4.71 + 2.86 < 11 u`` from
  ``_unit_points`` and less than ``18.9 + 4.71 + 2.86 < 27 u`` from the
  difference kernel, both within ``2^-48 = 32 u``;
* a sum of ``T`` such terms carries ``err <= T * 2^-46 = T * 128 u``.
  ``math.fsum`` is correctly rounded and adds at most ``u`` per term.  A
  numpy sum of a chunk of at most ``2^16`` terms (pairwise: at most 10
  halvings, then blocks of 128 summed 8 ways) puts each term through at
  most 35 roundings, ``35 u`` (per component, and so as a complex modulus
  by Minkowski's inequality); a pair-count weight adds ``u`` per pair.
  The difference kernel sums the points of whole blocks together, at most
  ``max(s, klsum.BATCH) <= 2^16`` of them.  ``bounds._abs_w_sum``
  numpy-sums each |W| row over slices of at most ``2^16`` products and
  adds a row's slice sums with ``math.fsum``.  All of it stays below
  ``32 u + 37 u = 69 u``, well inside the ``128 u`` per term.

``precision_bits`` below 53 only loosens the documented constant, to
``2^(7 - precision_bits)`` per term (the computation itself always runs
in doubles); values above 53 are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotCoprime

# Largest prime accepted by the deterministic primality test.
PRIME_LIMIT = 1 << 64

# Largest value the convenience trial-division factorizer will accept.
FACTORIZE_LIMIT = 1 << 48

# Witnesses making Miller-Rabin deterministic for all n < 3.3e24 > 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality test limited to n < 2^64, got {n}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer carried together with its full prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1; ``value`` equals the product.
    The empty factorization represents 1.
    """

    factors: tuple[tuple[int, int], ...]
    value: int

    def __post_init__(self):
        prev = 1
        prod = 1
        for p, a in self.factors:
            if p <= prev:
                raise ValueError(f"primes must be strictly increasing, got {p} after {prev}")
            if a < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {a}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**a
        if prod != self.value:
            raise ValueError(f"value {self.value} does not match factorization product {prod}")

    @classmethod
    def from_factors(cls, pairs) -> "FactoredInteger":
        """Build from (prime, exponent) pairs; merges duplicates, sorts primes."""
        merged: dict[int, int] = {}
        for p, a in pairs:
            merged[p] = merged.get(p, 0) + a
        factors = tuple(sorted((p, a) for p, a in merged.items() if a > 0))
        value = 1
        for p, a in factors:
            value *= p**a
        return cls(factors, value)

    @classmethod
    def from_value(cls, n: int) -> "FactoredInteger":
        """Factor n by trial division; convenience path for n < 2^48."""
        if n < 1:
            raise ValueError(f"need a positive integer, got {n}")
        if n >= FACTORIZE_LIMIT:
            raise ValueError(
                f"trial-division factorizer handles values < 2^48; supply {n} factored"
            )
        factors = []
        rem = n
        for p in (2, 3, 5):
            if rem % p == 0:
                a = 0
                while rem % p == 0:
                    rem //= p
                    a += 1
                factors.append((p, a))
        # 30-wheel over residues coprime to 2*3*5
        p = 7
        wheel = (4, 2, 4, 2, 4, 6, 2, 6)
        i = 0
        while p * p <= rem:
            if rem % p == 0:
                a = 0
                while rem % p == 0:
                    rem //= p
                    a += 1
                factors.append((p, a))
            p += wheel[i]
            i = (i + 1) % 8
        if rem > 1:
            factors.append((rem, 1))
        return cls(tuple(sorted(factors)), n)

    @classmethod
    def parse(cls, text: str) -> "FactoredInteger":
        """Parse the ``p1^a1*p2^a2*...`` text format (plain integers allowed)."""
        text = text.strip()
        if not text:
            raise ValueError("empty factored-integer literal")
        if "*" not in text and "^" not in text:
            return cls.from_value(int(text))
        pairs = []
        for part in text.split("*"):
            part = part.strip()
            if "^" in part:
                base, _, exp = part.partition("^")
                pairs.append((int(base), int(exp)))
            else:
                pairs.append((int(part), 1))
        return cls.from_factors(pairs)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{a}" if a > 1 else str(p) for p, a in self.factors)

    def __int__(self) -> int:
        return self.value

    def exponent_of(self, p: int) -> int:
        for q, a in self.factors:
            if q == p:
                return a
        return 0

    def divides(self, other: "FactoredInteger") -> bool:
        return all(a <= other.exponent_of(p) for p, a in self.factors)


ONE = FactoredInteger((), 1)


def kernel(q: FactoredInteger) -> FactoredInteger:
    """Squarefree kernel: the product of the distinct primes of q."""
    return FactoredInteger.from_factors((p, 1) for p, _ in q.factors)


def q_epsilon(q: FactoredInteger, eps: Fraction) -> tuple[FactoredInteger, list[int]]:
    """Smoothing modulus d * prod p^beta_p with beta_p = floor(eps * alpha_p).

    Returns the modulus and the beta list (one entry per prime of q, in
    prime order).  The floor is exact rational arithmetic.  Each exponent
    beta_p + 1 = floor(eps * alpha_p) + 1 <= alpha_p, so the result
    divides q and is a multiple of the kernel.
    """
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    beta = [(eps.numerator * a) // eps.denominator for _, a in q.factors]
    q_eps = FactoredInteger.from_factors(
        (p, b + 1) for (p, _), b in zip(q.factors, beta)
    )
    return q_eps, beta


def mod_inverse(n: int, q: int) -> int:
    """Inverse of n mod q in [1, q-1]; raises NotCoprime if gcd(n, q) > 1."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    try:
        return pow(n, -1, q)
    except ValueError:
        raise NotCoprime(n, q) from None


@dataclass(frozen=True)
class ComplexEstimate:
    """A complex value with a guaranteed absolute-error bound from rounding."""

    re: float
    im: float
    err: float

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error bound must be non-negative")

    def abs_value(self) -> float:
        return math.hypot(self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def per_term_bound(precision_bits: int = 53) -> float:
    """Documented per-term rounding constant for the chosen precision.

    2^(7 - bits): 2^-46 at the default 53 bits, growing as the precision
    drops; see the module docstring for the model.
    """
    if not 1 <= precision_bits <= 53:
        raise ValueError(f"precision_bits must be in [1, 53], got {precision_bits}")
    return 2.0 ** (7 - precision_bits)


def unit_root(v: int, q: int) -> complex:
    """e^(2 pi i v / q) with v reduced mod q exactly before any float op.

    Quadrant reduction keeps the libm argument in [0, pi/2) and makes the
    values at quarter turns exact.
    """
    v %= q
    quadrant, rem = divmod(4 * v, q)
    x = math.pi / 2 * (rem / q)
    c = math.cos(x)
    s = math.sin(x)
    if quadrant == 0:
        re, im = c, s
    elif quadrant == 1:
        re, im = -s, c
    elif quadrant == 2:
        re, im = -c, -s
    else:
        re, im = s, -c
    # +0.0 folds any negative zero back to plain zero
    return complex(re + 0.0, im + 0.0)


def e_q(v: int, q: int) -> ComplexEstimate:
    """e_q(v) = e^(2 pi i v / q) as a ComplexEstimate."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    z = unit_root(v, q)
    return ComplexEstimate(z.real, z.imag, per_term_bound())

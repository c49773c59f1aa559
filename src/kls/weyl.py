"""Geometric-sum and min-sum inequalities, rational approximation, damping.

The two classical inequalities are implemented as exact computations with
the asserted bound returned alongside, so randomized suites can hunt for
violations with no rounding slack on the deciding comparisons: distance
to the nearest integer is exact rational arithmetic whenever the input
is rational, and every min() decision is made by integer cross
multiplication.  All logarithms are natural.

geometric_sum_check, lemma3_check and v_r_sum step the residues
(C + A n) mod B as numpy arrays: int64 while every product fits in 63
bits and B < 2^53, Python integers (dtype=object) through the same code
otherwise.  Either way the terms are the floats a term-by-term loop would
produce and the sums end in math.fsum, so results do not depend on the route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .factored import ComplexEstimate, FactoredInteger, per_term_bound
from .klsum import CHUNK, _unit_points


@dataclass(frozen=True)
class RationalApproximation:
    """A continued-fraction convergent A/Q of some real, with the remainder.

    alpha = A/Q + theta/Q^2 with gcd(A, Q) = 1 and |theta| <= 1.
    """

    A: int
    Q: int
    theta: float

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")
        if math.gcd(self.A, self.Q) != 1:
            raise ValueError(f"A = {self.A} and Q = {self.Q} share a factor")
        if abs(self.theta) > 1:
            raise ValueError(f"|theta| must be <= 1, got {self.theta}")


@dataclass(frozen=True)
class DampingFactor:
    """The damping multiplier attached to one coefficient index r.

    Lambda_r is the exact integer range bound k*h^r; Delta_r = min(1, delta_r).
    """

    r: int
    Lambda_r: int
    Q_r: FactoredInteger
    delta_r: float
    Delta_r: float


def dist_to_int(alpha) -> Fraction | float:
    """Distance to the nearest integer, in [0, 1/2]; exact on Fractions."""
    if isinstance(alpha, Fraction):
        f = alpha - (alpha.numerator // alpha.denominator)
        return min(f, 1 - f)
    f = float(alpha) % 1.0
    return min(f, 1.0 - f)


def geometric_sum_check(alpha: Fraction, P: int) -> tuple[ComplexEstimate, float, bool]:
    """Sum of e(alpha*n) for n in [1, P] against min(P, 1/dist).

    Returns (sum, bound, holds).  Unit points come from the correctly
    rounded r/B at r = A n mod B, summed per chunk of CHUNK terms and
    across chunks with math.fsum, so err = P 2^-46 holds for any P.  The
    bound uses the exact rational distance; dist = 0 gives bound = P.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    alpha = Fraction(alpha)
    B = alpha.denominator
    r = _residues(alpha.numerator % B, B, 0, P)
    re, im = [], []
    for lo in range(0, P, CHUNK):
        cos, sin = _unit_points(B, r[lo : lo + CHUNK])
        re.append(cos.sum())
        im.append(sin.sum())
    value = ComplexEstimate(math.fsum(re), math.fsum(im), P * per_term_bound())
    dist = dist_to_int(alpha)
    bound = float(P) if dist == 0 else min(float(P), float(1 / dist))
    holds = value.abs_value() <= bound + value.err
    return value, bound, holds


def rational_approx(alpha, Q_max: int) -> RationalApproximation:
    """Best continued-fraction convergent A/Q with Q <= Q_max.

    Guarantees |alpha - A/Q| <= 1/(Q*Q_max) <= 1/Q^2, i.e. |theta| <= 1.
    Floats are treated as the exact rational they represent.
    """
    if Q_max < 1:
        raise ValueError(f"Q_max must be >= 1, got {Q_max}")
    fr = Fraction(alpha)
    num, den = fr.numerator, fr.denominator
    p0, q0, p1, q1 = 1, 0, num // den, 1
    A, Q = p1, q1
    num, den = den, num - (num // den) * den
    while den:
        a = num // den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > Q_max:
            break
        A, Q = p1, q1
        num, den = den, num - a * den
    theta = float((fr - Fraction(A, Q)) * Q * Q)
    return RationalApproximation(A, Q, theta)


def _residues(A: int, B: int, C: int, P: int, fits: bool = True) -> np.ndarray:
    """(C + A n) mod B for n in 1..P, for 0 <= A, C < B.

    int64 (every residue and B exact as floats) when B < 2^53,
    C + A P < 2^63 and the caller's ``fits`` hold; dtype=object otherwise.
    """
    n = np.arange(1, P + 1, dtype=np.int64)
    if not (fits and B < 2**53 and C + A * P < 2**63):
        n = n.astype(object)
    return (C + A * n) % B


def _min_terms(A: int, B: int, C: int, P: int, U) -> list[float]:
    """[min(U, 1/dist((A n + C)/B)) for n in 1..P], for 0 <= A, C < B.

    r = (C + A n) mod B and k = min(r, B - r) give dist = k/B exactly, and
    U <= B/k is decided as un k <= B ud with U = un/ud; a term is U, or
    B/k as a correctly rounded float quotient (B and k convert exactly on
    the int64 route of _residues, which also needs un B, B ud < 2^63).
    """
    ufr = Fraction(U)
    un, ud = ufr.numerator, ufr.denominator
    r = _residues(A, B, C, P, un * B < 2**63 and B * ud < 2**63)
    k = np.minimum(r, B - r)
    saturated = (k == 0) | (un * k <= B * ud)
    return np.where(saturated, float(U), B / np.where(saturated, 1, k)).tolist()


def lemma3_check(
    alpha, beta, U: float, P: int, approx: RationalApproximation
) -> tuple[float, float, bool]:
    """Sum of min(U, 1/dist(alpha*n + beta)) over n in [1, P] vs its bound.

    Returns (lhs, rhs, holds) with rhs = 6(P/Q + 1)(U + Q ln Q).  Each
    term's min() is decided by exact integer comparison; only the chosen
    term value is floated.  Q = 1 contributes Q ln Q = 0.
    """
    if P < 1 or U <= 0:
        raise ValueError("need P >= 1 and U > 0")
    afr, bfr = Fraction(alpha), Fraction(beta)
    B = math.lcm(afr.denominator, bfr.denominator)
    A = afr.numerator * (B // afr.denominator) % B
    C = bfr.numerator * (B // bfr.denominator) % B
    lhs = math.fsum(_min_terms(A, B, C, P, U))
    Q = approx.Q
    rhs = 6.0 * (P / Q + 1.0) * (U + Q * math.log(Q))
    return lhs, rhs, lhs <= rhs


def damping_factor(
    q: FactoredInteger, Q_r: FactoredInteger, Lambda_r: int, r: int, ln_q: float | None = None
) -> DampingFactor:
    """delta_r = 6 ln(q) (1/sqrt(Q_r) + sqrt(Q_r)/(2 Lambda_r))^2, capped at 1.

    Computed in log space so astronomically large Q_r or Lambda_r cannot
    overflow.  ln_q overrides the modulus logarithm for symbolic runs.
    """
    if Q_r.value < 1 or Lambda_r < 1:
        raise ValueError("need Q_r >= 1 and Lambda_r >= 1")
    lnq = math.log(q.value) if ln_q is None else ln_q
    half_lnQ = 0.5 * math.log(Q_r.value)
    t1 = math.exp(-half_lnQ)
    t2 = math.exp(half_lnQ - math.log(2 * Lambda_r))
    delta = 6.0 * lnq * (t1 + t2) ** 2
    return DampingFactor(r, Lambda_r, Q_r, delta, min(1.0, delta))


def v_r_sum(alpha: Fraction, Lambda: int) -> float:
    """Sum of min(2*Lambda, 1/dist(alpha*mu)) over |mu| < Lambda.

    The damping construction bounds this by (2*Lambda)^2 * delta_r when
    delta_r is built from the exact reduced denominator of alpha; the
    trivial bound is (2*Lambda)^2.  The same exact residue terms as
    lemma3_check; symmetric terms are folded.
    """
    if Lambda < 1:
        raise ValueError(f"Lambda must be >= 1, got {Lambda}")
    alpha = Fraction(alpha)
    B = alpha.denominator
    A = alpha.numerator % B
    U = 2 * Lambda
    # mu = 0 has dist 0, so its min saturates at U; mu and -mu agree
    return math.fsum([U] + [2 * t for t in _min_terms(A, B, 0, Lambda - 1, U)])

"""Bound formulas, their applicability windows, and the proof parameters.

Two bound variants are implemented.  The first uses fixed constants
(gamma = 160^-4, gamma1 = 900) on the window max(d^15, e^{900 (ln q)^{2/3}})
<= N <= sqrt(q); the second trades a parameter 0 < delta < 0.1 for a
wider kernel window d^{2+delta} <= N <= q^{delta/20}.  Both windows are
empty for every modulus a computer can hold (nonempty needs
ln q >= (2*gamma1)^3, about 5.8e9), so applicability is reported, never
enforced, and a symbolic mode accepts ln q directly.

Floors of the derived parameters (m, r1, r2) are computed exactly: when
ln N / ln q is rational, which is decidable from q's factorization, the
whole calculation is rational arithmetic; otherwise integer power
comparisons settle each floor, with a high-precision screen so the big
integers are only materialized on near-ties.  All logarithms natural.

amplified_bound checks the smoothing inequality
|S| <= h^-2 sum_n |W(n)| + h^2 q_eps, gathering every |W(n)| of a block
from one table of the klsum summand; it runs in the calling process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, DeltaOutOfRange
from .factored import FactoredInteger, kernel, per_term_bound
from .klsum import CHUNK, SumSpec, _phases, _unit_points, eval_sum
from .postnikov import _product_counts, make_context

GAMMA_T1 = 160.0**-4
GAMMA1_T1 = 900.0

# Gathered entries (bases x distinct products) per block of the |W| table.
_TABLE = 1 << 21


@dataclass(frozen=True)
class ProofParameters:
    """Derived parameters of the estimate at one (q, N) pair.

    eps approximates c * ln N / ln q (exactly rational when ln N / ln q
    is); m = floor(2/eps), r1 = floor(c1/eps), r2 = floor(c2/eps) are
    exact regardless; tau = kappa * m, k = m * tau, h = floor(N^(1/4)) + 1.
    r1_positive and r2_gap flag the sanity conditions r1 >= 1 and
    r2 - r1 >= 1, which can fail outside the proven window.
    """

    eps: Fraction
    m: int
    r1: int
    r2: int
    tau: int
    k: int
    h: int
    kappa: int
    r1_positive: bool
    r2_gap: bool


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: value, window verdict, named failed conditions."""

    bound_value: float
    applicable: bool
    failed_conditions: tuple[str, ...]
    gamma: float
    gamma1: float


def _bound_value(N: int, ln_q: float, gamma: float) -> float:
    ln_b = math.log(N) - gamma * math.log(N) ** 3 / ln_q**2
    return math.exp(ln_b) if ln_b < 709.0 else math.inf


def theorem1_bound(q: FactoredInteger, N: int) -> BoundReport:
    """Fixed-constant bound N*exp(-gamma (ln N)^3 / (ln q)^2), gamma = 160^-4.

    Window conditions, each named when it fails: kernel_threshold
    (d^15 <= N), lower_threshold (e^{900 (ln q)^{2/3}} <= N),
    upper_threshold (N^2 <= q).  The value is computed either way.
    """
    if q.value < 2 or N < 1:
        raise ValueError("need q >= 2 and N >= 1")
    d = kernel(q).value
    ln_q = math.log(q.value)
    failed = []
    if d**15 > N:
        failed.append("kernel_threshold")
    if GAMMA1_T1 * ln_q ** (2.0 / 3.0) > math.log(N):
        failed.append("lower_threshold")
    if N * N > q.value:
        failed.append("upper_threshold")
    return BoundReport(
        _bound_value(N, ln_q, GAMMA_T1), not failed, tuple(failed), GAMMA_T1, GAMMA1_T1
    )


def theorem2_bound(q: FactoredInteger, N: int, delta: Fraction) -> BoundReport:
    """Delta-parameterized bound on the window d^{2+delta} <= N <= q^{delta/20}.

    gamma1 = 1200 delta^-2 (ln(1/delta))^{2/3} and
    gamma = 201^-4 delta^6 (ln(1/delta))^2; requires 0 < delta < 0.1.
    """
    if q.value < 2 or N < 1:
        raise ValueError("need q >= 2 and N >= 1")
    delta = Fraction(delta)
    if not (0 < delta < Fraction(1, 10)):
        raise DeltaOutOfRange(f"delta must lie in (0, 0.1), got {delta}")
    df = float(delta)
    ln_inv = math.log(1.0 / df)
    gamma1 = 1200.0 * df**-2 * ln_inv ** (2.0 / 3.0)
    gamma = 201.0**-4 * df**6 * ln_inv**2
    d = kernel(q).value
    ln_q = math.log(q.value)
    dn, dd = delta.numerator, delta.denominator
    failed = []
    # d^(2+delta) <= N  iff  d^(2*dd+dn) <= N^dd
    if _cmp_pow(d, 2 * dd + dn, N, dd) > 0:
        failed.append("kernel_threshold")
    if gamma1 * ln_q ** (2.0 / 3.0) > math.log(N):
        failed.append("lower_threshold")
    # N <= q^(delta/20)  iff  N^(20*dd) <= q^dn
    if _cmp_pow(N, 20 * dd, q.value, dn) > 0:
        failed.append("upper_threshold")
    return BoundReport(_bound_value(N, ln_q, gamma), not failed, tuple(failed), gamma, gamma1)


def _cmp_pow(x: int, a: int, y: int, b: int) -> int:
    """Sign of x^a - y^b without materializing the powers unless forced.

    Bit-length screens settle disjoint ranges; a 240-bit log comparison
    settles everything but near-ties; only a genuine near-tie (which at
    these precisions means an exact power coincidence) pays for the big
    integers.
    """
    if x < 1 or y < 1 or a < 0 or b < 0:
        raise ValueError("comparisons are for positive bases, non-negative exponents")
    if a == 0 or x == 1:
        return 0 if b == 0 or y == 1 else -1
    if b == 0 or y == 1:
        return 1
    if a * (x.bit_length() - 1) >= b * y.bit_length():
        return 1  # x^a >= 2^(a(len_x-1)) >= 2^(b len_y) > y^b
    if a * x.bit_length() <= b * (y.bit_length() - 1):
        return -1  # x^a < 2^(a len_x) <= 2^(b(len_y-1)) <= y^b
    with mpmath.workprec(240):
        diff = a * mpmath.log(x) - b * mpmath.log(y)
        if abs(diff) > mpmath.mpf(2) ** -200:
            return 1 if diff > 0 else -1
    big_a, big_b = x**a, y**b
    return (big_a > big_b) - (big_a < big_b)


def _floor_log_ratio(N: int, w: int, q: int, u: int, estimate: float) -> int:
    """Largest j >= 0 with N^(j*w) <= q^u, seeded by a float estimate."""
    j = max(0, int(estimate))
    while _cmp_pow(N, (j + 1) * w, q, u) <= 0:
        j += 1
    while j > 0 and _cmp_pow(N, j * w, q, u) > 0:
        j -= 1
    return j


def _decompose_over(q: FactoredInteger, N: int) -> Fraction | None:
    """ln N / ln q as an exact Fraction, or None when it is irrational.

    Rational iff N factors over q's primes with exponents proportional
    to q's, which is a finite integer check.
    """
    ratio = None
    rem = N
    for p, alpha in q.factors:
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        r = Fraction(e, alpha)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio if rem == 1 and ratio and ratio > 0 else None


def _eps_fraction(c: Fraction, N: int, q: int) -> Fraction:
    """c * ln N / ln q as a 240-bit binary Fraction."""
    with mpmath.workprec(250):
        x = mpmath.log(N) / mpmath.log(q)
        scaled = int(mpmath.floor(x * mpmath.mpf(2) ** 240))
    return c * Fraction(scaled, 2**240)


def _floor_fraction(x: Fraction) -> int:
    return x.numerator // x.denominator


def proof_parameters(
    q: FactoredInteger, N: int, variant: str = "theorem1", delta: Fraction | None = None
) -> ProofParameters:
    """All derived parameters at (q, N) for the chosen bound variant.

    theorem1 uses c = 1/7, c1 = 1/3, c2 = 2/3, kappa = 10; theorem2 uses
    c = (delta/5)(1 - delta/15), c1 = (2 delta/5)(1 - delta/20),
    c2 = 2 delta/5, kappa = floor(4 ln(1/delta)) + 14.  The floors
    m = floor(2/eps) and r_j = floor(c_j/eps) are exact; see the module
    notes on how.
    """
    if N < 2 or q.value <= N:
        raise ValueError("need N >= 2 and q > N")
    if variant == "theorem1":
        c, c1, c2 = Fraction(1, 7), Fraction(1, 3), Fraction(2, 3)
        kappa = 10
    elif variant == "theorem2":
        if delta is None:
            raise ValueError("theorem2 needs delta")
        delta = Fraction(delta)
        if not (0 < delta < Fraction(1, 10)):
            raise DeltaOutOfRange(f"delta must lie in (0, 0.1), got {delta}")
        c = delta / 5 * (1 - delta / 15)
        c1 = 2 * delta / 5 * (1 - delta / 20)
        c2 = 2 * delta / 5
        four_ln = 4.0 * math.log(delta.denominator / delta.numerator)
        if abs(four_ln - round(four_ln)) < 1e-9:  # settle a near-integer floor carefully
            with mpmath.workprec(200):
                four_ln = 4 * mpmath.log(mpmath.mpf(delta.denominator) / delta.numerator)
        kappa = int(mpmath.floor(four_ln)) + 14
    else:
        raise ValueError(f"unknown variant {variant!r}")

    ratio = _decompose_over(q, N)
    if ratio is not None:
        eps = c * ratio
        m = _floor_fraction(2 / eps)
        r1 = _floor_fraction(c1 / eps)
        r2 = _floor_fraction(c2 / eps)
    else:
        ln_ratio = math.log(q.value) / math.log(N)

        # floor(x/eps) = floor((x/c) * ln q / ln N); x/c = u/w exactly
        def exact_floor(x: Fraction) -> int:
            f = x / c
            u, w = f.numerator, f.denominator
            try:
                est = float(f) * ln_ratio
            except OverflowError:
                est = 1e18
            return _floor_log_ratio(N, w, q.value, u, est)

        m = exact_floor(Fraction(2))
        r1 = exact_floor(c1)
        r2 = exact_floor(c2)
        eps = _eps_fraction(c, N, q.value)
        if (
            _floor_fraction(2 / eps) != m
            or _floor_fraction(c1 / eps) != r1
            or _floor_fraction(c2 / eps) != r2
        ):
            raise ArithmeticError(
                "eps approximation straddles a floor boundary; raise the working precision"
            )
    tau = kappa * m
    h = math.isqrt(math.isqrt(N)) + 1
    return ProofParameters(eps, m, r1, r2, tau, m * tau, h, kappa, r1 >= 1, r2 - r1 >= 1)


def holder_constant(k: int, m: int) -> float:
    """C(k,m)^(1/(4k^2)) with C = k^{12k} (2m)^{4k(m+1)} (2k)^{2m}, log-space.

    At the canonical operating point k = 10 m^2 with m >= 28 the value is
    below 1.02, and that is asserted.
    """
    if not 1 <= m <= k:
        raise ValueError("need k >= m >= 1")
    log_c = 12 * k * math.log(k) + 4 * k * (m + 1) * math.log(2 * m) + 2 * m * math.log(2 * k)
    value = math.exp(log_c / (4 * k * k))
    if m >= 28 and k == 10 * m * m:
        assert value < 1.02, f"constant {value} escaped its ceiling at (k={k}, m={m})"
    return value


def _row_fsum(slices: list[np.ndarray]) -> np.ndarray:
    """Per row, the math.fsum of its slice sums (one slice passes through)."""
    if len(slices) == 1:
        return slices[0]
    return np.array([math.fsum(row) for row in zip(*slices)])


def _abs_w_sum(spec: SumSpec, qe: int, h: int) -> float:
    """Sum of |W(n)| over n in [1, N] with n + c coprime to q.

    W(n) e_q(-b(n+c)) = sum_u tau_h(u) g(n + c + qe u) with
    g(m) = e_q(a m* + b m), the klsum summand, so |W(n)| is a
    tau-weighted gather from one table of g.  The products u go in slices
    of at most min(CHUNK, _TABLE) and the bases n + c (mod q) in blocks of
    _TABLE // (slice width) window positions, so a block gathers at most
    _TABLE entries whatever q_eps h^2 is.  The block's distinct positions
    mod q (all coprime, since d | qe) get exact arguments from one batched
    inversion.  A row is numpy-summed per slice, the chunk the rounding
    model in factored covers, and its slice sums are added with math.fsum,
    as are the |W| per block and across blocks.
    """
    q, d = spec.q.value, kernel(spec.q).value
    us, tau = _product_counts(h)
    dtype = np.int64 if q < 2**62 else object  # a base plus an offset stays below 2q
    offsets = np.array([qe * u % q for u in us.tolist()], dtype=dtype)
    cols = min(len(us), CHUNK, _TABLE)
    rows = _TABLE // cols
    end = spec.c + spec.N + 1
    sums = []
    for lo in range(spec.c + 1, end, rows):
        bases = [m % q for m in range(lo, min(lo + rows, end)) if math.gcd(m, d) == 1]
        if not bases:
            continue
        column = np.array(bases, dtype=dtype)[:, None]
        re, im = [], []
        for j in range(0, len(us), cols):
            pos = (column + offsets[None, j : j + cols]) % q
            table, where = np.unique(pos.ravel(), return_inverse=True)
            cos, sin = _unit_points(q, _phases(q, spec.a, spec.b, table.tolist()))
            where = where.reshape(pos.shape)
            re.append((cos[where] * tau[j : j + cols]).sum(axis=1))
            im.append((sin[where] * tau[j : j + cols]).sum(axis=1))
        sums.append(math.fsum(np.hypot(_row_fsum(re), _row_fsum(im)).tolist()))
    return math.fsum(sums)


def amplified_bound(
    spec: SumSpec,
    eps: Fraction,
    h: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[float, float, bool]:
    """The smoothing inequality |S| <= h^-2 sum_n |W(n)| + h^2 q_eps, checked.

    Requires the window start to be kernel-aligned (c = 0 mod d).  Returns
    (rhs, lhs, holds) with lhs = |eval_sum(spec)|.  The |W(n)| come from
    one table of the klsum summand over the distinct positions
    n + c + q_eps u of each block, with at most 2^21 gathered entries per
    block (see _abs_w_sum), so memory does not grow with q_eps h^2.
    Everything runs in the calling process.  ``threads`` is unused; it
    stays only because the benchmark harness (perfbench/workloads.py)
    passes it.

    holds is False only when lhs exceeds rhs by more than both rounding
    bounds: eval_sum's err, and rhs's allowance from the model in
    factored.  Each |W(n)| is h^2 terms, so it is off by at most
    h^2 2^-46, plus 2u relative (u = 2^-53) from hypot; divided by h^2
    that is 2^-46 + 2u per counted position.  The two fsum levels, the
    division by h^2, the addition of h^2 q_eps and lhs's own hypot add at
    most 6u of rhs near the boundary (8u is allowed).
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    d = kernel(spec.q).value
    if spec.c % d != 0:
        raise ValueError("window start must be a multiple of the kernel; shift first")
    ctx = make_context(spec.q, eps)
    cost = h * h * (spec.N + ctx.q_eps.value)
    if cost > budget:
        raise BudgetExceeded(
            f"h^2 (N + q_eps) = {cost} exceeds budget {budget}",
            estimated_cost=cost,
            budget=budget,
        )
    qe = ctx.q_eps.value
    rhs = _abs_w_sum(spec, qe, h) / (h * h) + h * h * qe
    res = eval_sum(spec)
    lhs = res.value.abs_value()
    u = 2.0**-53
    allowance = res.terms_counted * (per_term_bound() + 2 * u) + 8 * u * rhs
    return rhs, lhs, lhs <= rhs + res.value.err + allowance


def regime_report(
    q: FactoredInteger | None = None,
    ln_q: float | None = None,
    ln_d: float | None = None,
    delta: Fraction | None = None,
) -> dict:
    """Where (if anywhere) the bound's window sits for this modulus.

    Concrete mode takes q; symbolic mode takes ln_q (and optionally ln_d,
    default ln 2) for moduli too large to hold; both must be finite and
    positive, or ValueError is raised.  With delta the report covers the
    delta-parameterized window instead.  Keys include the two
    lower thresholds (as natural logs), the upper limit, whether the
    window is nonempty, the binding constraint when empty, and the
    crossover value of ln q past which the exponential threshold fits
    under the upper limit.
    """
    if (q is None) == (ln_q is None):
        raise ValueError("supply exactly one of q, ln_q")
    if q is not None:
        ln_q_val = math.log(q.value)
        d = kernel(q).value
        ln_d_val = math.log(d)
    else:
        ln_q_val = float(ln_q)
        d = None
        ln_d_val = math.log(2.0) if ln_d is None else float(ln_d)
    if not all(math.isfinite(x) and x > 0 for x in (ln_q_val, ln_d_val)):
        raise ValueError(f"ln q and ln d must be finite and > 0, got {ln_q_val}, {ln_d_val}")
    if delta is None:
        gamma1 = GAMMA1_T1
        kernel_exp = 15.0
        upper_factor = 0.5
        variant = "theorem1"
    else:
        delta = Fraction(delta)
        if not (0 < delta < Fraction(1, 10)):
            raise DeltaOutOfRange(f"delta must lie in (0, 0.1), got {delta}")
        df = float(delta)
        gamma1 = 1200.0 * df**-2 * math.log(1.0 / df) ** (2.0 / 3.0)
        kernel_exp = 2.0 + df
        upper_factor = df / 20.0
        variant = "theorem2"
    kernel_ln = kernel_exp * ln_d_val
    lower_ln = gamma1 * ln_q_val ** (2.0 / 3.0)
    upper_ln = upper_factor * ln_q_val
    nonempty = max(kernel_ln, lower_ln) <= upper_ln
    binding = None
    if not nonempty:
        binding = "lower_threshold" if lower_ln >= kernel_ln else "kernel_threshold"
    return {
        "variant": variant,
        "q": str(q) if q is not None else None,
        "ln_q": ln_q_val,
        "d": d,
        "ln_d": ln_d_val,
        "gamma1": gamma1,
        "kernel_threshold_ln": kernel_ln,
        "lower_threshold_ln": lower_ln,
        "upper_ln": upper_ln,
        "window_nonempty": nonempty,
        "binding_constraint": binding,
        "crossover_ln_q": (gamma1 / upper_factor) ** 3,
    }

"""Randomized verification suites with replayable seeds.

Every suite draws its cases from ``random.Random(seed)``, the stdlib
Mersenne Twister, so a run is reproducible from the seed printed in its
report.  A report is a JSON-ready dict: case and failure counts plus the
worst margin the suite observed.  The margin conventions are

- lemma1: ``worst_residual``, the largest inversion residual (0 expected);
- lemma2: ``min_slack``, bound + err - |sum| (nonnegative expected);
- lemma3: ``min_slack``, rhs - lhs;
- lemma4: ``worst_log_margin``, ln(count) - ln(bound) (<= 0 expected),
  over a fixed 63-point (m, tau, P) grid that ``cases`` caps in grid
  order; over-budget points are skipped and listed, ``cases`` reports
  the points actually checked, and BudgetExceeded is raised when every
  requested point is over budget;
- w-identity: ``worst_ratio``, the largest difference between the two
  evaluation paths over its rounding allowance (both sides' err plus
  2^-46 |rhs|; <= 1 expected), ``worst_abs_diff``, and a per-case row
  list; lhs/rhs are [re, im] pairs;
- amplify: ``min_rel_margin``, (rhs - lhs)/rhs, and ``nontrivial_cases``,
  the rows whose rhs is below their coprime-term count ``terms`` (the
  triangle-inequality bound).  A row fails when lhs exceeds rhs by more
  than the tracked rounding of both sides (``bounds.amplified_bound``).  Case 0 is q = 2^40, eps = 1/5, h = 8,
  N = 10^5, which is nontrivial; the others are desk moduli, where
  h^2 q_eps > N.  A report with no nontrivial row counts as a failure,
  since none of its inequalities could have failed, unless a case was
  skipped; over-budget cases are skipped and listed as for lemma4, and
  ``cases`` counts the rows checked;
- shift: ``worst_excess``, |S - S'| minus the 2*shift + rounding allowance.

``failures`` counts cases outside tolerance; the command line maps any
nonzero count to exit code 1.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .bounds import amplified_bound
from .errors import DEFAULT_BUDGET, BudgetExceeded
from .factored import ComplexEstimate, FactoredInteger, kernel, unit_root
from .klsum import SumSpec, eval_sum, shift_to_kernel
from .postnikov import inverse_expansion, make_context, w_direct, w_poly, weyl_coefficients
from .vmvt import lemma4_check
from .weyl import geometric_sum_check, lemma3_check, rational_approx

_EPS_CHOICES = (
    Fraction(1, 5),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(4, 5),
)

_PRIME_POOL = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53,
    61, 71, 83, 97, 101, 127, 251, 509, 1021,
)

_DESK_MODULI = ("3^6", "2^4*3^4", "5^5", "2^10")

# h^2 q_eps = 64 * 512 is below the 5 * 10^4 coprime terms, so the
# amplified inequality says more than the triangle inequality here.
_NONTRIVIAL_AMPLIFY = (FactoredInteger.parse("2^40"), Fraction(1, 5), 10**5, 8)


def _random_modulus(rng, max_primes, max_exp, max_value, min_exp=1):
    """A random factored modulus within the given prime/exponent/size caps."""
    count = rng.randint(1, max_primes)
    primes = sorted(rng.sample(_PRIME_POOL, count))
    factors = []
    room = max_value
    for p in primes:
        cap = 0
        v = p
        while v <= room and cap < max_exp:
            cap += 1
            v *= p
        if cap < min_exp:
            continue
        e = rng.randint(min_exp, cap)
        factors.append((p, e))
        room //= p**e
    if not factors:
        factors = [(2, min_exp)]
    return FactoredInteger.from_factors(tuple(factors))


def _random_coprime(rng, lo, hi, modulus):
    while True:
        n = rng.randrange(lo, hi)
        if math.gcd(n, modulus) == 1:
            return n


def _report(suite, seed, cases, failures, **margins) -> dict:
    """A suite report: name, seed, case and failure counts, then the suite's own fields."""
    return {"suite": suite, "seed": seed, "cases": cases, "failures": failures, **margins}


def _suite_lemma1(seed, cases, budget):
    cases = 1000 if cases is None else cases
    rng = random.Random(seed)
    failures = 0
    worst = 0
    for _ in range(cases):
        q = _random_modulus(rng, max_primes=4, max_exp=32, max_value=2**128)
        eps = rng.choice(_EPS_CHOICES)
        ctx = make_context(q, eps)
        z = rng.randrange(q.value)
        try:
            inv = inverse_expansion(z, ctx)
            residual = (inv * (1 + z * ctx.q_eps.value) - 1) % q.value
        except AssertionError:
            residual = 1
        if residual:
            failures += 1
            worst = max(worst, residual)
    return _report("lemma1", seed, cases, failures, worst_residual=worst)


def _suite_lemma2(seed, cases, budget):
    cases = 10000 if cases is None else cases
    rng = random.Random(seed)
    failures = 0
    min_slack = math.inf
    for _ in range(cases):
        Q = rng.randint(1, 10**6)
        A = rng.randrange(Q)
        P = rng.randint(1, 10**4)
        value, bound, holds = geometric_sum_check(Fraction(A, Q), P)
        min_slack = min(min_slack, bound + value.err - value.abs_value())
        if not holds:
            failures += 1
    return _report("lemma2", seed, cases, failures, min_slack=min_slack)


def _suite_lemma3(seed, cases, budget):
    cases = 10000 if cases is None else cases
    rng = random.Random(seed)
    failures = 0
    min_slack = math.inf
    for _ in range(cases):
        if rng.randrange(2):
            den = rng.randint(1, 10**6)
            alpha = Fraction(rng.randrange(den + 1), den)
        else:
            s = rng.randint(2, 10**6)
            if math.isqrt(s) ** 2 == s:
                s += 1
            alpha = Fraction(math.isqrt(s << 80), 1 << 40)
        beta = Fraction(rng.randrange(-(10**4), 10**4), rng.randint(1, 10**4))
        U = rng.randint(1, 5000)
        P = rng.randint(1, 1000)
        approx = rational_approx(alpha, rng.randint(1, 10**4))
        lhs, rhs, holds = lemma3_check(alpha, beta, U, P, approx)
        min_slack = min(min_slack, rhs - lhs)
        if not holds:
            failures += 1
    return _report("lemma3", seed, cases, failures, min_slack=min_slack)


def _suite_lemma4(seed, cases, budget):
    # the grid is fixed and cases caps it in grid order; the seed only tags the report
    grid = [(m, tau, P) for m in (1, 2, 3) for tau in (1, 2, 3) for P in range(2, 9)]
    checked = failures = 0
    skipped = []
    worst = -math.inf
    for m, tau, P in grid[:cases]:
        try:
            count, log_bound, holds = lemma4_check(m, tau, P, budget=budget)
        except BudgetExceeded as exc:
            skipped.append(([m, tau, P], exc.estimated_cost))
            continue
        worst = max(worst, math.log(count) - log_bound)
        checked += 1
        if not holds:
            failures += 1
    if not checked:
        raise BudgetExceeded(
            f"all {len(skipped)} requested lemma4 grid points exceed the budget",
            min(cost for _, cost in skipped),
            budget,
        )
    return _report(
        "lemma4", seed, checked, failures,
        skipped=len(skipped), skipped_cases=[case for case, _ in skipped], worst_log_margin=worst,
    )


def _rotation_allowance(lhs: ComplexEstimate, poly: ComplexEstimate, rhs: complex) -> float:
    """Rounding allowance lhs.err + poly.err + 2^-46 |rhs| for |W - e_q(phase) W_poly|.

    With u = 2^-53, each pair term of a W sum is off by at most 34u (see
    factored), well inside the 128u per pair behind err, so after the
    rotation by z = unit_root(phase), |z| <= 1 + 2^-48, poly's error still
    fits in poly.err.  What remains of rhs = fl(z poly) is 2^-48 |poly| from
    z and sqrt(5) u |z poly| from the complex product, below 1.1 * 2^-48
    |rhs|; 2^-46 |rhs| covers that and the rounding of the difference.
    """
    return lhs.err + poly.err + abs(rhs) * 2.0**-46


def _suite_w_identity(seed, cases, budget):
    cases = 200 if cases is None else cases
    rng = random.Random(seed)
    rows = []
    failures = 0
    worst = worst_ratio = 0.0
    for _ in range(cases):
        q = _random_modulus(rng, max_primes=3, max_exp=13, max_value=10**12, min_exp=2)
        eps = rng.choice(_EPS_CHOICES)
        ctx = make_context(q, eps)
        qv = q.value
        a = _random_coprime(rng, 1, qv, qv)
        b = rng.randrange(qv)
        n = _random_coprime(rng, 1, qv, kernel(q).value)
        h = rng.randint(1, 40)
        spec = SumSpec(q=q, N=1, a=a, b=b, c=0)
        coeffs = weyl_coefficients(n, spec, ctx)
        direct = w_direct(n, spec, ctx, h)
        poly = w_poly(coeffs, h)
        lhs = direct.as_complex()
        rhs = unit_root(coeffs.phase, qv) * poly.as_complex()
        diff = abs(lhs - rhs)
        ratio = diff / _rotation_allowance(direct, poly, rhs)
        worst = max(worst, diff)
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            failures += 1
        rows.append(
            {
                "q": qv,
                "eps": str(eps),
                "n": n,
                "h": h,
                "lhs": [lhs.real, lhs.imag],
                "rhs": [rhs.real, rhs.imag],
                "abs_diff": diff,
            }
        )
    return _report(
        "w-identity", seed, cases, failures, worst_ratio=worst_ratio, worst_abs_diff=worst, rows=rows
    )


def _amplify_specs(cases):
    """(q, eps, N, h) per row: the nontrivial spec, then the desk moduli in turn."""
    moduli = [FactoredInteger.parse(s) for s in _DESK_MODULI]
    eps_list = (Fraction(1, 3), Fraction(1, 2))
    yield _NONTRIVIAL_AMPLIFY
    for i in range(cases - 1):
        q = moduli[i % len(moduli)]
        N = math.isqrt(q.value)
        yield q, eps_list[(i // len(moduli)) % len(eps_list)], N, math.isqrt(math.isqrt(N)) + 1


def _suite_amplify(seed, cases, budget):
    cases = 20 if cases is None else cases
    rng = random.Random(seed)
    rows = []
    skipped = []
    failures = 0
    min_margin = math.inf
    for q, eps, N, h in _amplify_specs(cases):
        qv = q.value
        d = kernel(q).value
        a = _random_coprime(rng, 1, qv, qv)
        b = rng.randrange(qv)
        spec = SumSpec(q=q, N=N, a=a, b=b, c=0)
        try:
            rhs, lhs, holds = amplified_bound(spec, eps, h, budget=budget)
        except BudgetExceeded as exc:
            skipped.append(([str(q), str(eps), N, h], exc.estimated_cost))
            continue
        terms = sum(1 for n in range(1, N + 1) if math.gcd(n, d) == 1)
        min_margin = min(min_margin, (rhs - lhs) / rhs)
        if not holds:
            failures += 1
        rows.append(
            {
                "q": str(q),
                "eps": str(eps),
                "N": N,
                "h": h,
                "a": a,
                "b": b,
                "lhs": lhs,
                "rhs": rhs,
                "terms": terms,
                "holds": holds,
                # below the triangle-inequality bound, so the row could have failed
                "nontrivial": rhs < terms,
            }
        )
    if not rows:
        raise BudgetExceeded(
            f"all {len(skipped)} requested amplify cases exceed the budget",
            min(cost for _, cost in skipped),
            budget,
        )
    nontrivial = sum(row["nontrivial"] for row in rows)
    if not nontrivial and not skipped:
        failures += 1
    return _report(
        "amplify", seed, len(rows), failures,
        min_rel_margin=min_margin, nontrivial_cases=nontrivial, skipped=len(skipped),
        skipped_cases=[case for case, _ in skipped], rows=rows,
    )


def _suite_shift(seed, cases, budget):
    cases = 100 if cases is None else cases
    rng = random.Random(seed)
    failures = 0
    worst = -math.inf
    for _ in range(cases):
        q = _random_modulus(rng, max_primes=3, max_exp=9, max_value=10**9, min_exp=2)
        qv = q.value
        d = kernel(q).value
        a = _random_coprime(rng, 1, qv, qv)
        b = rng.randrange(qv)
        spec = SumSpec(q=q, N=rng.randint(1, 2000), a=a, b=b, c=rng.randrange(-qv, qv))
        shifted, shift = shift_to_kernel(spec)
        if not 0 <= shift < d:
            failures += 1
            continue
        r0 = eval_sum(spec)
        r1 = eval_sum(shifted)
        diff = abs(r0.value.as_complex() - r1.value.as_complex())
        allowance = 2.0 * shift + r0.value.err + r1.value.err
        worst = max(worst, diff - allowance)
        if diff > allowance:
            failures += 1
    return _report("shift", seed, cases, failures, worst_excess=worst)


SUITES = {
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "lemma3": _suite_lemma3,
    "lemma4": _suite_lemma4,
    "w-identity": _suite_w_identity,
    "amplify": _suite_amplify,
    "shift": _suite_shift,
}


def run_suite(
    name: str,
    seed: int = 0,
    cases: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Run one named suite and return its report dict.

    ``cases = None`` selects each suite's default size.  Unknown names
    and ``cases < 1`` raise ValueError (the command line turns that into
    a usage error).
    """
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    return fn(seed, cases, budget)

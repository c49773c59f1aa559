"""The nine acceptance criteria, one test and one verdict line per criterion.

Each test prints `criterion N: PASS/FAIL - detail` (shown with -s, or on
failure) and asserts the same condition, so the -v report carries exactly
one line per criterion.  Seeds are fixed; tolerances are the contract
values: 1e-9 for cross-path identities and oracle agreement, 1e-12 for
the fixed zero-sum case, exact equality for integer identities, 15
significant digits for the closed-form bound collapse.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from kls.bounds import holder_constant, regime_report, theorem1_bound
from kls.factored import FactoredInteger
from kls.klsum import SumSpec, eval_sum
from kls.verify import run_suite
from kls.vmvt import VinogradovInstance, j_count, j_count_zero, power_sum_histogram

from oracles import naive_j_count, naive_sum

SEED = 20260821


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_postnikov_inversion():
    t0 = time.perf_counter()
    rep = run_suite("lemma1", seed=SEED, cases=1000)
    dt = time.perf_counter() - t0
    ok = rep["failures"] == 0 and rep["worst_residual"] == 0 and dt < 10.0
    _verdict(1, ok, f"1000 inversion cases, {rep['failures']} failures, {dt:.2f}s")


def test_criterion_2_w_identity():
    t0 = time.perf_counter()
    rep = run_suite("w-identity", seed=SEED, cases=200)
    dt = time.perf_counter() - t0
    worst = rep["worst_abs_diff"]
    ok = rep["failures"] == 0 and worst <= 1e-9 and dt < 60.0
    _verdict(2, ok, f"200 cases, worst |direct - phase*poly| = {worst:.3e}, {dt:.2f}s")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(100):
        q = rng.randint(2, 10**6)
        while True:
            a = rng.randrange(1, q)
            if math.gcd(a, q) == 1:
                break
        b = rng.randrange(q)
        c = rng.randrange(-q, q)
        N = rng.randint(1, 10**4)
        spec = SumSpec(FactoredInteger.from_value(q), N, a, b, c)
        mine = eval_sum(spec).value.as_complex()
        worst = max(worst, abs(mine - naive_sum(q, N, a, b, c)))
    fixed = eval_sum(SumSpec(FactoredInteger.from_value(9), 8, 1, 0, 0))
    fixed_abs = fixed.value.abs_value()
    ok = worst <= 1e-9 and fixed_abs <= 1e-12
    _verdict(3, ok, f"100 specs vs naive, worst diff {worst:.3e}; |S_9(8;1,0,0)| = {fixed_abs:.3e}")


def _lambda_partition(k: int, m: int, P: int, rng: random.Random):
    """Sum of j_count over every achievable offset vector, plus how many
    offsets were checked through the public API (all of them when the
    key-cube work bound allows, a seeded sample of 100 otherwise)."""
    hist = power_sum_histogram(k, m, P).as_dict()
    keys = list(hist)
    grouped: dict[tuple[int, ...], int] = {}
    for s in keys:
        hs = hist[s]
        for t in keys:
            lam = tuple(x - y for x, y in zip(s, t))
            grouped[lam] = grouped.get(lam, 0) + hs * hist[t]
    if len(keys) ** 3 <= 5_000_000:
        sampled = list(grouped)
    else:
        sampled = rng.sample(list(grouped), 100)
    for lam in sampled:
        if j_count(VinogradovInstance(k=k, m=m, P=P, lam=lam)) != grouped[lam]:
            return -1, 0
    total = (
        sum(grouped.values())
        if len(sampled) < len(grouped)
        else sum(j_count(VinogradovInstance(k=k, m=m, P=P, lam=lam)) for lam in grouped)
    )
    return total, len(sampled)


def test_criterion_4_vinogradov_counts():
    t0 = time.perf_counter()
    ok = j_count_zero(2, 2, 2) == 6 == naive_j_count(2, 2, 2, [0, 0])
    ok = ok and j_count_zero(2, 2, 3) == 15 == naive_j_count(2, 2, 3, [0, 0])

    rng = random.Random(SEED)
    combos = checked = 0
    for k in range(1, 6):
        for m in (1, 2, 3):
            for P in (2, 3, 5, 7, 10):
                if P**k > 10**5:
                    continue
                total, n_checked = _lambda_partition(k, m, P, rng)
                ok = ok and total == P ** (2 * k)
                combos += 1
                checked += n_checked

    grid = run_suite("lemma4", seed=SEED, budget=2 * 10**8)
    ok = ok and grid["failures"] == 0 and grid["skipped"] == 0 and grid["cases"] == 63
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    _verdict(
        4,
        ok,
        f"zero-offset counts 6/15; offset partition exact on {combos} (k,m,P) grid "
        f"points ({checked} offsets via j_count); 63/63 mean-value grid cases hold; {dt:.1f}s",
    )


def test_criterion_5_interval_lemmas():
    rep2 = run_suite("lemma2", seed=SEED, cases=10**4)
    rep3 = run_suite("lemma3", seed=SEED, cases=10**4)
    ok = rep2["failures"] == 0 and rep3["failures"] == 0
    _verdict(
        5,
        ok,
        f"10^4 geometric-sum trials ({rep2['failures']} violations) and 10^4 "
        f"divisor-window trials ({rep3['failures']} violations), exact distances",
    )


def test_criterion_6_amplified_pipeline():
    rep = run_suite("amplify", seed=SEED, cases=20)
    ok = rep["failures"] == 0 and len(rep["rows"]) == 20
    _verdict(
        6,
        ok,
        f"20 specs ({rep['nontrivial_cases']} nontrivial), "
        f"{sum(r['holds'] for r in rep['rows'])} hold, "
        f"min relative margin {rep['min_rel_margin']:.3f}",
    )


def test_criterion_7_regime_windows():
    crossover = 1800.0**3
    empties = [
        regime_report(q=FactoredInteger.parse("3^40")),
        regime_report(q=FactoredInteger.parse("2^4*3^4")),
        regime_report(q=FactoredInteger.parse("2^3321")),  # just under 10^1000
    ]
    ok = all(not rep["window_nonempty"] for rep in empties)
    # every concrete q <= 10^1000 has ln q <= 1000 ln 10 < the crossover,
    # and the window needs ln q >= crossover, so emptiness is certified
    # for the whole range, not only the spot checks
    ln_cap = 1000.0 * math.log(10.0)
    ok = ok and empties[0]["crossover_ln_q"] > ln_cap
    ok = ok and abs(empties[0]["crossover_ln_q"] - crossover) <= 0.01 * crossover
    sym = regime_report(ln_q=8e9)
    ok = ok and sym["window_nonempty"]
    _verdict(
        7,
        ok,
        f"window empty at 3^40, 2^4*3^4, 2^3321 (certified for ln q <= {ln_cap:.1f} "
        f"by crossover {empties[0]['crossover_ln_q']:.4g}); nonempty at ln q = 8e9",
    )


def test_criterion_8_statement_formulas():
    N = 1000
    q = FactoredInteger.from_value(round(math.exp(math.log(N) ** 1.5)))
    rep = theorem1_bound(q, N)
    target = N * math.exp(-(160.0**-4))
    rel = abs(rep.bound_value - target) / target
    hc = holder_constant(7840, 28)
    ok = rel <= 1e-15 and hc < 1.02
    _verdict(
        8,
        ok,
        f"(ln N)^3 = (ln q)^2 collapse matches N*exp(-160^-4) to "
        f"{rel:.2e} relative; interpolation constant {hc:.6f} < 1.02",
    )


def test_criterion_9_performance_determinism():
    spec = SumSpec(FactoredInteger.parse("3^38"), 10**7, 12345677, 987654321, 0)
    t0 = time.perf_counter()
    r8 = eval_sum(spec, threads=8)
    dt = time.perf_counter() - t0
    r1 = eval_sum(spec, threads=1)
    r2 = eval_sum(spec, threads=2)

    def raw(r):
        return (r.value.re, r.value.im, r.value.err, r.terms_counted, r.skipped)

    def rendered(r):
        return "%.17g,%.17g,%.17g,%d,%d" % raw(r)

    identical = raw(r1) == raw(r2) == raw(r8) and rendered(r1) == rendered(r2) == rendered(r8)
    ok = dt < 30.0 and identical
    _verdict(
        9,
        ok,
        f"10^7 terms mod 3^38 in {dt:.2f}s on 8 workers; 1/2/8-worker "
        f"outputs byte-identical: {identical}",
    )

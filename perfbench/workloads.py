"""Seeded inputs for each workload, and the timed pass that feeds them to ``kls``.

Input generation is plain Python (no ``kls`` import), so the parent process
can rebuild a pass's inputs to check its outputs.  A pass is the unit that
runs in one fresh interpreter: it is a fixed batch of operations, and each
operation is timed on its own.  ``kls`` is reached only through its public
functions and ``kls.cli.main(argv)``; every call is looked up on its module
at call time, so a traced pass sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

# Small primes the generated moduli are built from.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

EPS_CHOICES = ("1/5", "1/3", "1/2", "2/3", "4/5")

LEMMA4_BUDGET = 10**8


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512, so streams do not depend on PYTHONHASHSEED
    return random.Random(f"kls-perfbench:{workload}:{seed}")


def _factored_str(pairs) -> str:
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(pairs))


def _value(pairs) -> int:
    return math.prod(p**e for p, e in pairs)


def _coprime(rng: random.Random, lo: int, hi: int, m: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if math.gcd(n, m) == 1:
            return n


def _modulus_near(rng: random.Random, bits: int, nprimes: int) -> list[tuple[int, int]]:
    """A powerful modulus of about `bits` bits with `nprimes` distinct primes.

    Every exponent is at least 2, and the value stays below 2^bits.  Small
    targets get fewer primes, since four distinct squares already need 16 bits.
    """
    nprimes = min(nprimes, max(1, bits // 12))
    while True:
        primes = rng.sample(PRIMES, nprimes)
        share = bits / nprimes
        pairs = [(p, max(2, int(share / math.log2(p)))) for p in primes]
        while _value(pairs).bit_length() > bits:
            i = max(range(nprimes), key=lambda j: pairs[j][1])
            if pairs[i][1] == 2:
                break
            pairs[i] = (pairs[i][0], pairs[i][1] - 1)
        if bits - 8 < _value(pairs).bit_length() <= bits:
            return pairs


# --------------------------------------------------------------------------
# eval-long: one 10^7-position `kls eval` mod 3^38 per pass.

EVAL_LONG_Q = "3^38"
EVAL_LONG_N = 10**7


def eval_long_inputs(seed: int) -> list[dict]:
    rng = _rng("eval-long", seed)
    q = 3**38
    return [
        {
            "q": EVAL_LONG_Q,
            "N": EVAL_LONG_N,
            "a": _coprime(rng, 1, q, q),
            "b": rng.randrange(q),
            "c": rng.randint(-(10**9), 10**9),
        }
    ]


# --------------------------------------------------------------------------
# eval-scan: a batch of `kls scan` invocations, one modulus each.

# (bits, number of primes) per invocation slot: prime powers and
# multi-prime products on both sides of 2^62, up to about 2^200.
SCAN_SLOTS = (
    (48, 1), (61, 1), (56, 2), (61, 3),
    (80, 1), (200, 1), (128, 2), (200, 3),
    (40, 1), (62, 2), (100, 1), (160, 2),
)


def eval_scan_inputs(seed: int) -> list[dict]:
    rng = _rng("eval-scan", seed)
    cases = []
    for bits, nprimes in SCAN_SLOTS:
        pairs = _modulus_near(rng, bits, nprimes)
        q = _value(pairs)
        n_values = [
            rng.randint(10, 99),
            rng.randint(100, 999),
            rng.randint(1000, 9999),
            rng.randint(10**4, 6 * 10**4),
            10**5,
        ]
        cases.append(
            {
                "q": _factored_str(pairs),
                "a": _coprime(rng, 1, q, q),
                "b": rng.randrange(q),
                "c": rng.choice((-1, 1)) * rng.randint(1, 10**9),
                "N_values": n_values,
            }
        )
    return cases


# --------------------------------------------------------------------------
# checks: three families of finite checks, each built from its own stream.
#
# smoothing: one nontrivial amplified inequality plus W identities.

AMPLIFY = {"q": "2^40", "eps": "1/5", "h": 8, "N": 40000}
W_CASES = 16


def smoothing_inputs(seed: int) -> list[dict]:
    rng = _rng("checks-smoothing", seed)
    q = 2**40
    cases = [
        dict(
            AMPLIFY,
            kind="amplify",
            a=_coprime(rng, 1, q, q),
            b=rng.randrange(q),
            c=2 * rng.randint(-(10**9), 10**9),
        )
    ]
    for _ in range(W_CASES):
        pairs = _modulus_near(rng, rng.randint(24, 40), rng.randint(1, 3))
        qv = _value(pairs)
        d = math.prod(p for p, _ in pairs)
        c = rng.randint(-(10**6), 10**6)
        cases.append(
            {
                "kind": "w",
                "q": _factored_str(pairs),
                "eps": rng.choice(EPS_CHOICES),
                "a": _coprime(rng, 1, qv, qv),
                "b": rng.randrange(qv),
                "c": c,
                "n": _coprime(rng, 1, qv, d) - c,
                "h": rng.randint(8, 24),
            }
        )
    return cases


# lemmas: inverse expansion, geometric sums, the divisor-window sum.

LEMMA_CASES = 4000


def lemmas_inputs(seed: int) -> list[dict]:
    rng = _rng("checks-lemmas", seed)
    cases = []
    for _ in range(LEMMA_CASES):
        pairs = _modulus_near(rng, rng.randint(16, 128), rng.randint(1, 4))
        q = _value(pairs)
        cases.append(
            {
                "kind": "inverse",
                "q": _factored_str(pairs),
                "eps": rng.choice(EPS_CHOICES),
                "z": rng.randrange(q),
            }
        )
    for _ in range(LEMMA_CASES):
        Q = rng.randint(1, 10**6)
        cases.append(
            {"kind": "geometric", "alpha": f"{rng.randrange(Q)}/{Q}", "P": rng.randint(1, 10**4)}
        )
    for _ in range(LEMMA_CASES):
        if rng.randrange(2):
            den = rng.randint(1, 10**6)
            alpha = Fraction(rng.randrange(den + 1), den)
        else:
            s = rng.randint(2, 10**6)
            if math.isqrt(s) ** 2 == s:
                s += 1
            alpha = Fraction(math.isqrt(s << 80), 1 << 40)
        beta = Fraction(rng.randrange(-(10**4), 10**4), rng.randint(1, 10**4))
        cases.append(
            {
                "kind": "lemma3",
                "alpha": str(alpha),
                "beta": str(beta),
                "U": rng.randint(1, 5000),
                "P": rng.randint(1, 1000),
                "Q_max": rng.randint(1, 10**4),
            }
        )
    return cases


# counting: cold histograms, offsets sharing each, the lemma 4 grid.

# (k, m, P, offsets): about 10^4, 10^4, 10^5 and 3*10^5 histogram keys.
HISTOGRAMS = ((2, 2, 140, 8), (3, 2, 40, 8), (3, 3, 84, 6), (2, 2, 800, 4))


def _power_sums(xs, m: int) -> list[int]:
    return [sum(x**j for x in xs) for j in range(1, m + 1)]


def counting_inputs(seed: int) -> list[dict]:
    rng = _rng("checks-counting", seed)
    cases = []
    for k, m, P, n_offsets in HISTOGRAMS:
        for i in range(n_offsets):
            if i == 0:
                lam = [0] * m
            else:
                x = [rng.randint(1, P) for _ in range(k)]
                y = [rng.randint(1, P) for _ in range(k)]
                lam = [s - t for s, t in zip(_power_sums(x, m), _power_sums(y, m))]
            cases.append({"kind": "jcount", "k": k, "m": m, "P": P, "lam": lam})
    grid = [
        (m, tau, P)
        for m in (1, 2, 3)
        for tau in (1, 2, 3)
        for P in range(2, 9)
        if P ** (m * tau) <= LEMMA4_BUDGET
    ]
    rng.shuffle(grid)
    cases += [{"kind": "lemma4", "m": m, "tau": tau, "P": P} for m, tau, P in grid]
    return cases


# --------------------------------------------------------------------------
# Timed passes (run in a child interpreter with kls importable).


def _cli(kls, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = kls.cli.main(argv)
    return {"rc": rc, "text": buf.getvalue()}


def _timed(fn, *args):
    """(elapsed ms, result or None, error text or None)."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
        error = None
    except Exception as exc:  # one failed operation must not end the pass
        result, error = None, f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - t0) * 1e3, result, error


def _eval_op(kls, case, threads):
    argv = ["eval", "--q", case["q"], "--N", str(case["N"]), "--a", str(case["a"]),
            "--b", str(case["b"]), "--c", str(case["c"]), "--threads", str(threads),
            "--format", "csv"]
    return _cli(kls, argv)


def _scan_op(kls, case, threads):
    argv = ["scan", "--q", case["q"], "--a", str(case["a"]), "--b", str(case["b"]),
            "--c", str(case["c"]), "--N-values", ",".join(map(str, case["N_values"])),
            "--threads", str(threads), "--format", "csv"]
    return _cli(kls, argv)


def _smoothing_case(kls, case, threads):
    q = kls.factored.FactoredInteger.parse(case["q"])
    eps = Fraction(case["eps"])
    if case["kind"] == "amplify":
        spec = kls.klsum.SumSpec(q, case["N"], case["a"], case["b"], case["c"])
        rhs, lhs, holds = kls.bounds.amplified_bound(spec, eps, case["h"], threads=threads)
        return [rhs, lhs, holds]
    ctx = kls.postnikov.make_context(q, eps)
    spec = kls.klsum.SumSpec(q, 1, case["a"], case["b"], case["c"])
    coeffs = kls.postnikov.weyl_coefficients(case["n"], spec, ctx)
    w = kls.postnikov.w_direct(case["n"], spec, ctx, case["h"])
    p = kls.postnikov.w_poly(coeffs, case["h"])
    return [w.re, w.im, w.err, p.re, p.im, p.err, coeffs.phase]


def _lemmas_case(kls, case, threads):
    if case["kind"] == "inverse":
        q = kls.factored.FactoredInteger.parse(case["q"])
        ctx = kls.postnikov.make_context(q, Fraction(case["eps"]))
        return kls.postnikov.inverse_expansion(case["z"], ctx)
    if case["kind"] == "geometric":
        v, bound, holds = kls.weyl.geometric_sum_check(Fraction(case["alpha"]), case["P"])
        return [v.re, v.im, v.err, bound, holds]
    alpha = Fraction(case["alpha"])
    approx = kls.weyl.rational_approx(alpha, case["Q_max"])
    lhs, rhs, holds = kls.weyl.lemma3_check(
        alpha, Fraction(case["beta"]), case["U"], case["P"], approx
    )
    return [lhs, rhs, holds, approx.A, approx.Q]


def _counting_case(kls, case, threads):
    if case["kind"] == "jcount":
        inst = kls.vmvt.VinogradovInstance(case["k"], case["m"], case["P"], tuple(case["lam"]))
        return kls.vmvt.j_count(inst, threads=threads)
    count, log_bound, holds = kls.vmvt.lemma4_check(
        case["m"], case["tau"], case["P"], budget=LEMMA4_BUDGET, threads=threads
    )
    return [count, log_bound, holds]


def _one_op_per_case(case_fn):
    """Each case is one timed operation (one CLI invocation)."""

    def run(kls, cases, threads):
        ops = []
        for case in cases:
            ms, out, err = _timed(case_fn, kls, case, threads)
            ops.append({"ms": ms, "cases": 1, "outputs": None if err else [out], "error": err})
        return ops

    return run


# (family, inputs, the kls call for one case), in the order a pass runs them.
CHECK_FAMILIES = (
    ("smoothing", smoothing_inputs, _smoothing_case),
    ("lemmas", lemmas_inputs, _lemmas_case),
    ("counting", counting_inputs, _counting_case),
)


def checks_inputs(seed: int) -> list[dict]:
    return [dict(case, family=family) for family, make, _ in CHECK_FAMILIES for case in make(seed)]


def _checks_pass(kls, cases, threads):
    """All three families are one timed operation; `parts` times each family."""
    parts, outputs, error = {}, [], None
    for family, _, case_fn in CHECK_FAMILIES:
        mine = [case for case in cases if case["family"] == family]
        ms, out, err = _timed(lambda: [case_fn(kls, case, threads) for case in mine])
        parts[family] = ms
        outputs += out or []
        error = error or err
    return [{"ms": sum(parts.values()), "cases": len(cases),
             "outputs": None if error else outputs, "error": error, "parts": parts}]


@dataclass(frozen=True)
class Workload:
    """Inputs, timed pass and work accounting of one workload.

    `work(case)` is the number of work items a case contributes to
    `work_per_s`, counted in `work_unit`.
    """

    name: str
    inputs: Callable[[int], list[dict]]
    run_pass: Callable
    work: Callable[[dict], int]
    work_unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-long", eval_long_inputs, _one_op_per_case(_eval_op),
                 lambda c: c["N"], "window positions"),
        Workload("eval-scan", eval_scan_inputs, _one_op_per_case(_scan_op),
                 lambda c: len(c["N_values"]), "sums"),
        Workload("checks", checks_inputs, _checks_pass, lambda c: 1, "checked cases"),
    )
}

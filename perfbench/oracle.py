"""Reference values and output checks that share no code with ``kls``.

Sums come from a naive evaluator with one ``pow(n, -1, q)`` per term and
``math.fsum`` accumulation; coprime counts from inclusion-exclusion over the
kernel primes; solution counts from a histogram built by repeated numpy
convolution and matched by sorted search.  Each ``check_*`` function takes a
case (as built in ``workloads``), the output ``kls`` gave for it and the
reference, and returns ``None`` when the output is right or a one-line reason
when it is not.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# Documented kls rounding constant per term at 53 bits (README, kls.factored).
KLS_PER_TERM = 2.0**-46
# Bound on this module's own rounding per unit-circle term: the phase v/q is
# correctly rounded, 2*pi*x adds three roundings of size 2^-53 * 2*pi, and
# cos/sin add one ulp, together below 2^-48; chunked fsum stays below another
# 2^-48 per term.
REF_PER_TERM = 2.0**-47
# A reported err above this many units per term would make the comparison
# meaningless, so it is rejected as well.
ERR_CEILING_PER_TERM = 2.0**-40

GAMMA_T1 = 160.0**-4
GAMMA1_T1 = 900.0

_BLOCK = 1 << 16


def parse_factored(text: str) -> list[tuple[int, int]]:
    """`p1^a1*p2^a2` into (prime, exponent) pairs, merged and sorted."""
    merged: dict[int, int] = {}
    for part in text.split("*"):
        base, _, exp = part.strip().partition("^")
        merged[int(base)] = merged.get(int(base), 0) + (int(exp) if exp else 1)
    return sorted(merged.items())


def coprime_count(lo: int, hi: int, primes) -> int:
    """Number of n in (lo, hi] divisible by none of `primes`."""
    total = 0
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            d = math.prod(subset)
            total += (-1) ** r * (hi // d - lo // d)
    return total


def _unit_sum(phases) -> tuple[float, float]:
    """fsum of cos and sin of 2*pi*x over an array of phases x in [0, 1)."""
    th = np.asarray(phases, dtype=np.float64) * (2.0 * math.pi)
    return math.fsum(np.cos(th).tolist()), math.fsum(np.sin(th).tolist())


def _block_sum(task) -> tuple[float, float, int]:
    """(re, im, terms) of the naive sum over the positions (lo, hi]."""
    q, d, a, b, lo, hi = task
    gcd = math.gcd
    phases = [(a * pow(n, -1, q) + b * n) % q / q for n in range(lo + 1, hi + 1) if gcd(n, d) == 1]
    return (*_unit_sum(phases), len(phases))


def sum_prefixes(q: int, primes, a: int, b: int, c: int, n_values, mapper=map):
    """(re, im, terms) of the sum over (c, c+N] for each N in `n_values`.

    The longest window is cut into blocks that end at every N; `mapper`
    (``map`` or an executor's) evaluates them, and block sums are added up
    in window order.
    """
    d = math.prod(primes)
    tasks, ends = [], []
    lo = c
    for mark in sorted(set(n_values)):
        while lo < c + mark:
            hi = min(lo + _BLOCK, c + mark)
            tasks.append((q, d, a, b, lo, hi))
            ends.append(hi - c)
            lo = hi
    parts_re, parts_im, terms, at = [], [], 0, {}
    for end, (re, im, k) in zip(ends, mapper(_block_sum, tasks)):
        parts_re.append(re)
        parts_im.append(im)
        terms += k
        at[end] = (math.fsum(parts_re), math.fsum(parts_im), terms)
    return [at[N] for N in n_values]


def _close(x: complex, y: complex, tol: float) -> bool:
    return abs(x - y) <= tol


def _rel_close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# --------------------------------------------------------------------------
# eval-long and eval-scan


def reference_eval(case: dict, mapper=map) -> dict:
    pairs = parse_factored(case["q"])
    primes = [p for p, _ in pairs]
    q = math.prod(p**e for p, e in pairs)
    n_values = case["N_values"] if "N_values" in case else [case["N"]]
    sums = sum_prefixes(q, primes, case["a"], case["b"], case["c"], n_values, mapper)
    return {
        "q": q,
        "primes": primes,
        "sums": sums,
        "counts": [coprime_count(case["c"], case["c"] + N, primes) for N in n_values],
    }


def _check_sum(re, im, err, terms, N, ref_sum, count) -> str | None:
    if terms != count:
        return f"N={N}: terms {terms} != {count} by inclusion-exclusion"
    if not 0 <= err <= ERR_CEILING_PER_TERM * max(1, terms):
        return f"N={N}: err {err} outside [0, {ERR_CEILING_PER_TERM} * terms]"
    rre, rim, rterms = ref_sum
    if rterms != count:
        return f"N={N}: reference counted {rterms} terms, not {count}"
    tol = err + REF_PER_TERM * terms
    if not _close(complex(re, im), complex(rre, rim), tol):
        return f"N={N}: sum {re}+{im}i differs from reference {rre}+{rim}i by more than {tol}"
    return None


def check_eval(case: dict, out: dict, ref: dict) -> str | None:
    if out["rc"] != 0:
        return f"exit code {out['rc']}"
    rows = _csv_rows(out["text"])
    header = ["q", "N", "a", "b", "c", "re", "im", "abs", "err", "terms", "skipped"]
    if len(rows) != 2 or rows[0] != header:
        return f"unexpected eval output {out['text']!r}"
    row = dict(zip(header, rows[1]))
    q = ref["q"]
    if parse_factored(row["q"]) != parse_factored(case["q"]):
        return f"modulus echoed as {row['q']}"
    if (int(row["N"]), int(row["a"]), int(row["b"]), int(row["c"])) != (
        case["N"], case["a"] % q, case["b"] % q, case["c"]
    ):
        return "spec echoed wrongly"
    re, im, absval, err = (float(row[k]) for k in ("re", "im", "abs", "err"))
    terms, skipped = int(row["terms"]), int(row["skipped"])
    if terms + skipped != case["N"]:
        return f"terms + skipped = {terms + skipped} != N"
    if not _rel_close(absval, math.hypot(re, im), 1e-12):
        return f"abs {absval} != |re + i im|"
    return _check_sum(re, im, err, terms, case["N"], ref["sums"][0], ref["counts"][0])


def theorem1(q: int, primes, N: int) -> tuple[float, bool]:
    """N exp(-gamma (ln N)^3 / (ln q)^2) and whether its window holds at N."""
    ln_q = math.log(q)
    ln_b = math.log(N) - GAMMA_T1 * math.log(N) ** 3 / ln_q**2
    applicable = (
        math.prod(primes) ** 15 <= N
        and GAMMA1_T1 * ln_q ** (2.0 / 3.0) <= math.log(N)
        and N * N <= q
    )
    return math.exp(ln_b), applicable


SCAN_HEADER = ["N", "re", "im", "abs", "terms", "trivial", "thm1_bound", "thm1_applicable", "ratio"]


def check_scan(case: dict, out: dict, ref: dict) -> str | None:
    if out["rc"] != 0:
        return f"exit code {out['rc']}"
    rows = _csv_rows(out["text"])
    if not rows or rows[0] != SCAN_HEADER or len(rows) != len(case["N_values"]) + 1:
        return f"unexpected scan output {out['text'][:200]!r}"
    for i, (N, cells) in enumerate(zip(case["N_values"], rows[1:])):
        row = dict(zip(SCAN_HEADER, cells))
        if int(row["N"]) != N:
            return f"row {i}: N {row['N']} != {N}"
        re, im, absval, bound, ratio = (
            float(row[k]) for k in ("re", "im", "abs", "thm1_bound", "ratio")
        )
        terms = int(row["terms"])
        if int(row["trivial"]) != terms:
            return f"N={N}: trivial {row['trivial']} != terms {terms}"
        problem = _check_sum(
            re, im, KLS_PER_TERM * terms, terms, N, ref["sums"][i], ref["counts"][i]
        )
        if problem:
            return problem
        if not _rel_close(absval, math.hypot(re, im), 1e-12):
            return f"N={N}: abs {absval} != |re + i im|"
        if not _rel_close(ratio, absval / terms if terms else 0.0, 1e-12):
            return f"N={N}: ratio {ratio} != abs / terms"
        ref_bound, ref_applicable = theorem1(ref["q"], ref["primes"], N)
        if not _rel_close(bound, ref_bound, 1e-9):
            return f"N={N}: thm1_bound {bound} != {ref_bound}"
        if row["thm1_applicable"] != ("true" if ref_applicable else "false"):
            return f"N={N}: thm1_applicable {row['thm1_applicable']} != {ref_applicable}"
    return None


# --------------------------------------------------------------------------
# checks: smoothing


def q_eps(pairs, eps: Fraction) -> int:
    """Smoothing modulus: prod p^(floor(eps * alpha_p) + 1)."""
    return math.prod(p ** ((eps.numerator * e) // eps.denominator + 1) for p, e in pairs)


def grid_multiplicity(h: int) -> dict[int, int]:
    """tau_h(u): the number of pairs (x, y) in [1, h]^2 with x * y = u."""
    tau: dict[int, int] = {}
    for x in range(1, h + 1):
        for y in range(1, h + 1):
            tau[x * y] = tau.get(x * y, 0) + 1
    return tau


def w_values(q: int, qe: int, a: int, b: int, bases, h: int) -> np.ndarray:
    """W at each base n + c: sum over the h x h grid, as a complex array."""
    bases = list(bases)
    w = np.zeros(len(bases), dtype=np.complex128)
    for u, mult in grid_multiplicity(h).items():
        shift = qe * u
        lin = b * shift
        phases = [(a * pow(base + shift, -1, q) + lin) % q / q for base in bases]
        w += mult * np.exp(2j * math.pi * np.asarray(phases, dtype=np.float64))
    return w


def reference_smoothing(case: dict, mapper=map) -> dict:
    pairs = parse_factored(case["q"])
    q = math.prod(p**e for p, e in pairs)
    primes = [p for p, _ in pairs]
    d = math.prod(primes)
    qe = q_eps(pairs, Fraction(case["eps"]))
    a, b, c, h = case["a"], case["b"], case["c"], case["h"]
    if case["kind"] == "w":
        return {"q": q, "qe": qe, "w": complex(w_values(q, qe, a, b, [case["n"] + c], h)[0])}
    N = case["N"]
    bases = [n + c for n in range(1, N + 1) if math.gcd(n + c, d) == 1]
    w = w_values(q, qe, a, b, bases, h)
    return {
        "q": q,
        "qe": qe,
        "count": len(bases),
        "abs_w_sum": math.fsum(np.abs(w).tolist()),
        "sum": sum_prefixes(q, primes, a, b, c, [N], mapper)[0],
        "terms": coprime_count(c, c + N, primes),
    }


def check_smoothing(case: dict, out, ref: dict) -> str | None:
    h, q = case["h"], ref["q"]
    if case["kind"] == "w":
        wre, wim, werr, pre, pim, perr, phase = out
        base = case["n"] + case["c"]
        if phase != case["a"] * pow(base, -1, q) % q:
            return f"phase {phase} != a / (n + c) mod q"
        w = complex(wre, wim)
        slack = h * h * REF_PER_TERM
        if not _close(w, ref["w"], werr + slack):
            return f"w_direct {w} differs from reference {ref['w']}"
        rotated = cmath.exp(2j * math.pi * (phase / q)) * complex(pre, pim)
        if not _close(w, rotated, werr + perr + slack):
            return f"w_direct {w} != e(phase) * w_poly = {rotated}"
        return None
    rhs, lhs, holds = out
    count, terms = ref["count"], ref["terms"]
    rre, rim, _ = ref["sum"]
    if not abs(lhs - math.hypot(rre, rim)) <= (KLS_PER_TERM + REF_PER_TERM) * terms:
        return f"lhs {lhs} != |S| = {math.hypot(rre, rim)}"
    ref_rhs = ref["abs_w_sum"] / (h * h) + h * h * ref["qe"]
    tol = (KLS_PER_TERM + REF_PER_TERM) * count + 1e-12 * ref_rhs
    if not abs(rhs - ref_rhs) <= tol:
        return f"rhs {rhs} != reference {ref_rhs}"
    if holds is not True or not lhs <= rhs:
        return f"amplified inequality reported {holds} with lhs {lhs}, rhs {rhs}"
    return None


# --------------------------------------------------------------------------
# checks: lemmas


def _dist(x: Fraction) -> Fraction:
    f = x - math.floor(x)
    return min(f, 1 - f)


def reference_lemmas(case: dict, mapper=map):
    if case["kind"] == "inverse":
        pairs = parse_factored(case["q"])
        q = math.prod(p**e for p, e in pairs)
        return pow(1 + case["z"] * q_eps(pairs, Fraction(case["eps"])), -1, q)
    alpha, P = Fraction(case["alpha"]), case["P"]
    if case["kind"] == "geometric":
        B = alpha.denominator
        A = alpha.numerator % B
        re, im = _unit_sum([A * n % B / B for n in range(1, P + 1)])
        dist = _dist(alpha)
        bound = float(P) if dist == 0 else min(float(P), float(1 / dist))
        return {"sum": complex(re, im), "bound": bound}
    beta, U = Fraction(case["beta"]), case["U"]
    B = math.lcm(alpha.denominator, beta.denominator)
    A = alpha.numerator * (B // alpha.denominator)
    C = beta.numerator * (B // beta.denominator)
    terms = []
    for n in range(1, P + 1):
        r = (A * n + C) % B
        k = min(r, B - r)  # dist(alpha n + beta) = k / B
        terms.append(float(U) if k == 0 or U * k <= B else B / k)
    return {"lhs": math.fsum(terms)}


def check_lemmas(case: dict, out, ref) -> str | None:
    if case["kind"] == "inverse":
        return None if out == ref else f"inverse {out} != {ref}"
    if case["kind"] == "geometric":
        re, im, err, bound, holds = out
        if not _close(complex(re, im), ref["sum"], err + REF_PER_TERM * case["P"]):
            return f"geometric sum {re}+{im}i != {ref['sum']}"
        if not _rel_close(bound, ref["bound"], 1e-15):
            return f"bound {bound} != {ref['bound']}"
        if holds is not True or not math.hypot(re, im) <= bound + err:
            return f"geometric-sum inequality reported {holds}"
        return None
    lhs, rhs, holds, A, Q = out
    alpha, Q_max = Fraction(case["alpha"]), case["Q_max"]
    if not (1 <= Q <= Q_max and math.gcd(A, Q) == 1):
        return f"approximation {A}/{Q} outside 1 <= Q <= {Q_max} or not reduced"
    if abs(alpha - Fraction(A, Q)) * Q * Q_max > 1:
        return f"|alpha - {A}/{Q}| exceeds 1/(Q Q_max)"
    if not _rel_close(lhs, ref["lhs"], 1e-12):
        return f"lemma3 lhs {lhs} != {ref['lhs']}"
    ref_rhs = 6.0 * (case["P"] / Q + 1.0) * (case["U"] + Q * math.log(Q))
    if not _rel_close(rhs, ref_rhs, 1e-12):
        return f"lemma3 rhs {rhs} != {ref_rhs}"
    if holds is not True or not lhs <= rhs:
        return f"lemma3 inequality reported {holds}"
    return None


# --------------------------------------------------------------------------
# checks: counting


class Histogram:
    """Ordered k-tuples in [1, P]^k grouped by their power sums up to degree m.

    Keys are power-sum vectors packed into one int64 by mixed radix; the
    radix of degree j exceeds k * P^j, so packing is additive with no carry.
    """

    def __init__(self, k: int, m: int, P: int):
        self.k, self.m, self.P = k, m, P
        self.high = [k * P**j for j in range(1, m + 1)]
        self.place = [math.prod(h + 1 for h in self.high[:j]) for j in range(m)]
        if self.place[-1] * (self.high[-1] + 1) >= 2**62:
            raise ValueError(f"packed keys overflow int64 at (k, m, P) = {(k, m, P)}")
        x = np.arange(1, P + 1, dtype=np.int64)
        single = sum(x**j * self.place[j - 1] for j in range(1, m + 1))
        keys, counts = single, np.ones(P, dtype=np.int64)
        for _ in range(k - 1):
            sums = (keys[:, None] + single[None, :]).ravel()
            keys, inverse = np.unique(sums, return_inverse=True)
            weights = np.repeat(counts, P).astype(np.float64)  # exact below 2^53
            counts = np.rint(np.bincount(inverse.ravel(), weights=weights)).astype(np.int64)
        self.keys, self.counts = keys, counts

    def count(self, lam) -> int:
        """Solutions of s(x) = s(y) + lam: sum of H[s] * H[s - lam]."""
        target = self.keys.copy()
        valid = np.ones(len(target), dtype=bool)
        for j in range(self.m - 1, -1, -1):
            comp = (self.keys // self.place[j]) % (self.high[j] + 1) - lam[j]
            valid &= (comp >= 0) & (comp <= self.high[j])
            target -= lam[j] * self.place[j]
        idx = np.searchsorted(self.keys, target)
        idx[idx == len(self.keys)] = 0
        hit = valid & (self.keys[idx] == target)
        return int((self.counts[hit] * self.counts[idx[hit]]).sum())


def lemma4_log_bound(m: int, tau: int, P: int) -> float:
    k = m * tau
    log_d = 6 * k * math.log(k) + 4 * m * (m + 1) * tau * math.log(2 * m)
    delta = 0.5 * m * (m + 1) * (1.0 - (1.0 - 1.0 / m) ** tau)
    return log_d + (2 * k - delta) * math.log(P)


def reference_counting(case: dict, mapper=map) -> int:
    if case["kind"] == "jcount":
        return Histogram(case["k"], case["m"], case["P"]).count(case["lam"])
    m, tau, P = case["m"], case["tau"], case["P"]
    return Histogram(m * tau, m, P).count([0] * m)


def check_counting(case: dict, out, ref: int) -> str | None:
    if case["kind"] == "jcount":
        return None if out == ref else f"j_count {out} != {ref}"
    count, log_bound, holds = out
    if count != ref:
        return f"lemma4 count {count} != {ref}"
    ref_bound = lemma4_log_bound(case["m"], case["tau"], case["P"])
    if not _rel_close(log_bound, ref_bound, 1e-12):
        return f"lemma4 log bound {log_bound} != {ref_bound}"
    if holds is not True or not math.log(count) <= log_bound:
        return f"lemma4 inequality reported {holds}"
    return None


# The (reference, check) pair for each kind of case in the checks workload.
CHECK_KINDS = {
    "amplify": (reference_smoothing, check_smoothing),
    "w": (reference_smoothing, check_smoothing),
    "inverse": (reference_lemmas, check_lemmas),
    "geometric": (reference_lemmas, check_lemmas),
    "lemma3": (reference_lemmas, check_lemmas),
    "jcount": (reference_counting, check_counting),
    "lemma4": (reference_counting, check_counting),
}


def reference_checks(case: dict, mapper=map):
    return CHECK_KINDS[case["kind"]][0](case, mapper)


def check_checks(case: dict, out, ref) -> str | None:
    return CHECK_KINDS[case["kind"]][1](case, out, ref)


CHECKS = {
    "eval-long": (reference_eval, check_eval),
    "eval-scan": (reference_eval, check_scan),
    "checks": (reference_checks, check_checks),
}

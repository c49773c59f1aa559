"""Direct evaluation of incomplete Kloosterman-type sums.

A sum here is Sum over c < n <= c+N, gcd(n,q)=1, of e_q(a n* + b n),
where n* is the inverse of n mod q.  Coprimality per n is tested against
the squarefree kernel d only (gcd(n,d)=1 iff gcd(n,q)=1), which is the
main performance lever for powerful q.

Evaluation partitions the window into fixed-size chunks.  Each chunk
inverts its residues with one batched inversion (prefix products and a
single modular inverse), reduces every exponent argument exactly mod q
in integer arithmetic, and only then converts to floating point.  Chunk
boundaries are fixed and the chunk partial sums are combined with
``math.fsum``, which is correctly rounded and so independent of order:
the result is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pool import parallel_map
from .factored import ComplexEstimate, FactoredInteger, kernel, per_term_bound

CHUNK = 1 << 16


@dataclass(frozen=True)
class SumSpec:
    """Parameters (q, N, a, b, c) of one incomplete sum.

    a and b are stored reduced mod q; a must be coprime to q.  The window
    is the half-open-on-the-left interval (c, c+N].
    """

    q: FactoredInteger
    N: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.q.value < 2:
            raise ValueError("modulus must be >= 2")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        object.__setattr__(self, "a", self.a % self.q.value)
        object.__setattr__(self, "b", self.b % self.q.value)
        if math.gcd(self.a, self.q.value) != 1:
            raise ValueError(f"a = {self.a} shares a factor with q = {self.q.value}")


@dataclass(frozen=True)
class SumResult:
    """Value of one sum plus the window accounting.

    terms_counted + skipped = N; |value| <= terms_counted + value.err.
    """

    value: ComplexEstimate
    terms_counted: int
    skipped: int


def _chunk_sum(task: tuple[int, int, int, int, int, int]) -> tuple[float, float, int, int]:
    """Partial sum of task (q, d, a, b, lo, hi) over (lo, hi]: (re, im, counted, skipped)."""
    q, d, a, b, lo, hi = task
    gcd = math.gcd
    ns = [n for n in range(lo + 1, hi + 1) if gcd(n, d) == 1]
    skipped = (hi - lo) - len(ns)
    if not ns:
        return 0.0, 0.0, 0, skipped
    k = len(ns)
    pref = [0] * k
    acc = 1
    for i, x in enumerate(ns):
        acc = acc * x % q
        pref[i] = acc
    inv = pow(acc, -1, q)
    args = [0] * k
    for i in range(k - 1, 0, -1):
        x = ns[i]
        v = inv * pref[i - 1] % q
        inv = inv * x % q
        args[i] = (a * v + b * x) % q
    args[0] = (a * inv + b * ns[0]) % q
    th = np.fromiter((v / q for v in args), dtype=np.float64, count=k)
    th *= 2.0 * math.pi
    return float(np.cos(th).sum()), float(np.sin(th).sum()), k, skipped


def eval_sum(spec: SumSpec, threads: int = 1, precision: int = 53) -> SumResult:
    """Evaluate the sum; deterministic for any thread count.

    Non-coprime n are skipped (never an error) and reported in the
    result.  err follows the documented rounding model: terms_counted
    times the per-term constant for the chosen precision.
    """
    q = spec.q.value
    d = kernel(spec.q).value
    lo, hi = spec.c, spec.c + spec.N
    edges = list(range(lo, hi, CHUNK)) + [hi]
    tasks = [(q, d, spec.a, spec.b, e0, e1) for e0, e1 in zip(edges, edges[1:])]
    re, im, counted, skipped = zip(*parallel_map(_chunk_sum, tasks, threads))
    terms = sum(counted)
    value = ComplexEstimate(math.fsum(re), math.fsum(im), terms * per_term_bound(precision))
    return SumResult(value, terms, sum(skipped))


def shift_to_kernel(spec: SumSpec) -> tuple[SumSpec, int]:
    """Align the window start to a multiple of the kernel d.

    Returns the shifted spec (c' = d*floor(c/d), so c' = 0 mod d and
    0 <= c - c' < d) and the shift amount c - c'.  Shifting the window
    by t changes the sum by at most 2t unimodular terms.
    """
    d = kernel(spec.q).value
    c1 = d * (spec.c // d)
    return SumSpec(spec.q, spec.N, spec.a, spec.b, c1), spec.c - c1


SCAN_FIELDS = ("N", "re", "im", "abs", "terms", "trivial", "thm1_bound", "thm1_applicable", "ratio")


def scan(
    q: FactoredInteger,
    a: int,
    b: int,
    c: int,
    N_values: list[int],
    threads: int = 1,
) -> list[dict]:
    """One row per N, in input order: value, trivial bound, formula bound.

    trivial is the coprime-term count (the triangle-inequality bound);
    ratio is |value| divided by that count, 0 for an empty window.
    """
    from .bounds import theorem1_bound

    rows = []
    for N in N_values:
        res = eval_sum(SumSpec(q, N, a, b, c), threads=threads)
        report = theorem1_bound(q, N)
        absval = res.value.abs_value()
        rows.append(
            {
                "N": N,
                "re": res.value.re,
                "im": res.value.im,
                "abs": absval,
                "terms": res.terms_counted,
                "trivial": res.terms_counted,
                "thm1_bound": report.bound_value,
                "thm1_applicable": report.applicable,
                "ratio": absval / res.terms_counted if res.terms_counted else 0.0,
            }
        )
    return rows

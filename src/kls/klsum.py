"""Direct evaluation of incomplete Kloosterman-type sums.

A sum here is Sum over c < n <= c+N, gcd(n,q)=1, of e_q(a n* + b n),
where n* is the inverse of n mod q.  Coprimality per n is tested against
the squarefree kernel d only (gcd(n,d)=1 iff gcd(n,q)=1), which is the
main performance lever for powerful q.

Two kernels evaluate a window.  Both compute the same exact integer
argument a n* + b n mod q for every n; only the conversion to floating
point and the summation order differ.

* The batch kernel cuts the window into chunks of CHUNK positions.  Each
  chunk inverts its residues with one batched inversion (prefix products
  and a single modular inverse) and reduces every argument exactly mod q
  in Python integers.  It serves every modulus and every window.
* The difference kernel serves q < 2^62.  Write n = r + s z with s a
  divisor of q that is a multiple of d, and m the least integer with
  q | s^(m+1).  Postnikov's inverse expansion,
  n* = r* sum_{j<=m} (-s r* z)^j mod q, makes the argument a polynomial
  of degree m in z for each residue r, and gcd(n, d) = gcd(r, d).  Its
  forward-difference table (Knuth, TAOCP 2, 4.6.4), seeded from the exact
  values at m+1 consecutive z, is stepped one block of s positions at a
  time in unsigned 64-bit numpy vectors over all coprime residues: m adds
  mod q, each sum below 2q < 2^63.  Every task ends with an exact
  certificate: the stepped arguments of its last block are compared with
  a n* + b n mod q computed in Python integers, and a mismatch raises
  CertificateFailure instead of returning a sum.

eval_sum takes the difference kernel when q < 2^62 and the window is
long enough for some s to beat the batch kernel on a cost estimate
(``_difference_step``, from about 10^4 positions); shorter windows and
larger moduli take the batch kernel.  Long-window values therefore may
differ from releases before the difference kernel in the last bits,
within err.

The task partition depends only on the spec, never on the worker count,
and the partial sums are combined with ``math.fsum``, which is correctly
rounded and so independent of order: the result is bit-identical for any
worker count.  ``scan`` sends the tasks of all its rows through one
fan-out and combines each row exactly as ``eval_sum`` does.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._pool import parallel_map
from .errors import CertificateFailure
from .factored import ComplexEstimate, FactoredInteger, kernel, per_term_bound

CHUNK = 1 << 16

# Moduli the difference kernel accepts: a sum of two residues stays below
# 2q < 2^63, inside its unsigned 64-bit vectors.
DIFFERENCE_LIMIT = 1 << 62

# Positions per difference-kernel task at most: each task pays its own
# seeding and certificate, and separate tasks can run on separate workers.
SEGMENT = 1 << 23


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


def _phases(q: int, a: int, b: int, ns: list[int]) -> list[int]:
    """[a n* + b n mod q for n in ns], exactly, by one batched inversion.

    Prefix products and a single modular inverse; every n must be
    coprime to q.
    """
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
    return args


def _unit_points(q: int, args) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi v / q for each exact argument v in [0, q).

    v / q is the correctly rounded quotient of the two integers, so any q
    works (an int64 array with q < 2^53 divides in numpy, where v and q
    convert exactly); the angle is then one float product.
    """
    if isinstance(args, np.ndarray) and args.dtype == np.int64 and q < 2**53:
        th = args / q
    else:
        th = np.fromiter((v / q for v in args), dtype=np.float64, count=len(args))
    th *= 2.0 * math.pi
    return np.cos(th), np.sin(th)


def _chunk_sum(task: tuple[int, int, int, int, int, int]) -> tuple[float, float, int, int]:
    """Batch kernel: partial sum of task (q, d, a, b, lo, hi) over (lo, hi].

    Returns (re, im, counted, skipped).
    """
    q, d, a, b, lo, hi = task
    gcd = math.gcd
    ns = [n for n in range(lo + 1, hi + 1) if gcd(n, d) == 1]
    skipped = (hi - lo) - len(ns)
    if not ns:
        return 0.0, 0.0, 0, skipped
    cos, sin = _unit_points(q, _phases(q, a, b, ns))
    return float(cos.sum()), float(sin.sum()), len(ns), skipped


def _difference_table(q: int, a: int, b: int, ns: list[int], s: int, m: int) -> np.ndarray:
    """Rows j = 0..m hold Delta^j f(0) mod q, where f(z) = a (n + s z)* + b (n + s z).

    One column per n in ns, seeded from the exact values f(0), ..., f(m).
    """
    k = len(ns)
    rows = np.array(
        _phases(q, a, b, [n + s * z for z in range(m + 1) for n in ns]), dtype=np.int64
    ).reshape(m + 1, k)
    for j in range(1, m + 1):
        for i in range(m, j - 1, -1):
            rows[i] -= rows[i - 1]
            rows[i] %= q
    return rows.astype(np.uint64)


def _difference_sum(
    task: tuple[int, int, int, int, int, int, int, int],
) -> tuple[float, float, int, int]:
    """Difference kernel: partial sum of task (q, d, a, b, lo, hi, s, m) over (lo, hi].

    The window is cut into blocks of s positions from lo + 1; position
    n + s z of block z shares its coprimality with n, and its argument is
    a polynomial of degree m in z (d | s and q | s^(m+1)).  Returns
    (re, im, counted, skipped), or raises CertificateFailure when the
    stepped arguments of the last block differ from their exact values.
    """
    q, d, a, b, lo, hi, s, m = task
    gcd = math.gcd
    ns = [n for n in range(lo + 1, lo + 1 + s) if gcd(n, d) == 1]
    blocks = -(-(hi - lo) // s)
    last = bisect.bisect_right(ns, hi - s * (blocks - 1))
    table = _difference_table(q, a, b, ns, s, m)
    value = table[0]
    k = len(ns)
    spare = np.empty(k, dtype=np.uint64)
    th = np.empty(k)
    trig = np.empty(k)
    q64 = np.uint64(q)
    scale = 2.0 * math.pi / q
    re, im = [], []
    for z in range(blocks):
        if z:
            # every sum is below 2q < 2^63; the wrapped difference is huge when it is negative
            for j in range(m):
                np.add(table[j], table[j + 1], out=table[j])
                np.subtract(table[j], q64, out=spare)
                np.minimum(table[j], spare, out=table[j])
        np.multiply(value, scale, out=th)
        t = th if z < blocks - 1 else th[:last]
        re.append(np.cos(t, out=trig[: len(t)]).sum())
        im.append(np.sin(t, out=trig[: len(t)]).sum())
    z = blocks - 1
    if value.tolist() != _phases(q, a, b, [n + s * z for n in ns]):
        raise CertificateFailure(
            f"stepped phases of block {z} of ({lo}, {hi}] mod {q} differ from their exact values"
        )
    counted = (blocks - 1) * k + last
    return math.fsum(re), math.fsum(im), counted, (hi - lo) - counted


def _difference_step(q: FactoredInteger, N: int) -> tuple[int, int] | None:
    """(s, m) for the difference kernel on N positions, or None for the batch path.

    Candidates are the divisors s of q that are multiples of the kernel
    d, with m the least integer such that q | s^(m+1) and a table of
    (m+1) s <= CHUNK entries.  Each is costed in nanoseconds from
    per-operation times measured on a 2-vCPU Xeon: about 900 per exact
    argument (seeding m+1 blocks plus the certificate's one), 70 per
    coprimality test, 5300 + 3600 m numpy dispatch per block and 10 + m
    per counted term, against 70 per position and 1500 per counted term
    on the batch path.  The kernel is taken only below half the batch
    estimate, since fixed per-call costs are left out; the estimates
    steer only the speed, as both kernels compute the same exact
    arguments.
    """
    if q.value >= DIFFERENCE_LIMIT:
        return None
    d = kernel(q).value
    phi_d = math.prod(p - 1 for p, _ in q.factors)
    candidates = [(1, 0)]  # (s, m + 1): q | s^(m+1) needs e * (m + 1) >= alpha for each p^e || s
    for p, alpha in q.factors:
        candidates = [
            (t * p**e, max(m1, -(-alpha // e)))
            for t, m1 in candidates
            for e in range(1, alpha + 1)
            if t * p**e <= CHUNK
        ]
    counted = N * phi_d / d
    costs = [
        (
            900 * (m1 + 1) * (s // d * phi_d) + 70 * s
            + -(-N // s) * (5300 + 3600 * (m1 - 1)) + (9 + m1) * counted,
            s,
            m1 - 1,
        )
        for s, m1 in candidates
        if m1 * s <= CHUNK
    ]
    cost, s, m = min(costs, default=(math.inf, 0, 0))
    return (s, m) if 2 * cost < 70 * N + 1500 * counted else None


def _plan(spec: SumSpec) -> list[tuple]:
    """The tasks (kernel, args) of one sum; the partition depends only on spec."""
    q = spec.q.value
    d = kernel(spec.q).value
    lo, hi = spec.c, spec.c + spec.N
    step = _difference_step(spec.q, spec.N)
    if step is None:
        edges = list(range(lo, hi, CHUNK)) + [hi]
        return [(_chunk_sum, (q, d, spec.a, spec.b, e0, e1)) for e0, e1 in zip(edges, edges[1:])]
    s, m = step
    # whole blocks, split evenly into segments of at most SEGMENT positions
    blocks = -(-spec.N // s)
    parts = -(-spec.N // SEGMENT)
    edges = [lo + s * (blocks * i // parts) for i in range(parts)] + [hi]
    return [
        (_difference_sum, (q, d, spec.a, spec.b, e0, e1, s, m))
        for e0, e1 in zip(edges, edges[1:])
    ]


def _run(task: tuple) -> tuple[float, float, int, int]:
    fn, args = task
    return fn(args)


def _combine(parts: list[tuple[float, float, int, int]], precision: int = 53) -> SumResult:
    re, im, counted, skipped = zip(*parts)
    terms = sum(counted)
    value = ComplexEstimate(math.fsum(re), math.fsum(im), terms * per_term_bound(precision))
    return SumResult(value, terms, sum(skipped))


def eval_sum(spec: SumSpec, threads: int = 1, precision: int = 53) -> SumResult:
    """Evaluate the sum; deterministic for any thread count.

    Non-coprime n are skipped (never an error) and reported in the
    result.  err follows the documented rounding model: terms_counted
    times the per-term constant for the chosen precision.
    """
    return _combine(parallel_map(_run, _plan(spec), threads), precision)


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

    specs = [SumSpec(q, N, a, b, c) for N in N_values]
    plans = [_plan(spec) for spec in specs]
    # one fan-out for every row; each row combines its own parts as eval_sum does
    parts = iter(parallel_map(_run, [task for plan in plans for task in plan], threads))
    rows = []
    for spec, plan in zip(specs, plans):
        res = _combine([next(parts) for _ in plan])
        report = theorem1_bound(q, spec.N)
        absval = res.value.abs_value()
        rows.append(
            {
                "N": spec.N,
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

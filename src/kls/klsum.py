"""Direct evaluation of incomplete Kloosterman-type sums.

A sum here is Sum over c < n <= c+N, gcd(n,q)=1, of e_q(a n* + b n),
where n* is the inverse of n mod q.  Coprimality per n is tested against
the squarefree kernel d only (gcd(n,d)=1 iff gcd(n,q)=1), which is the
main performance lever for powerful q.

Two kernels evaluate a window.  Both compute the same exact integer
argument a n* + b n mod q for every n; only the conversion to floating
point and the summation order differ.  Either way a point e(v / q) comes
from one table-driven routine, ``_turn_points`` (Tang's method for
elementary functions): a table of the TURN-th roots of unity times short
polynomials for the rest of the turn, with no libm call per term.  The
postnikov, bounds and weyl sums reach it through ``_unit_points``.

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
  mod q, each sum below 2q < 2^63.  The points of consecutive blocks are
  made and summed together, up to BATCH of them.  Every task ends with an
  exact certificate: the stepped arguments of its last block are compared
  with a n* + b n mod q computed in Python integers, and a mismatch raises
  CertificateFailure instead of returning a sum.

eval_sum takes the difference kernel when q < 2^62 and the window is
long enough for some s to beat the batch kernel on a cost estimate
(``_difference_step``, from about 10^4 positions); shorter windows and
larger moduli take the batch kernel.  Values may differ from releases
before the difference kernel or before the root table in the last bits,
within err.

The task partition depends only on the spec, never on the worker count,
and the partial sums are combined with ``math.fsum``, which is correctly
rounded and so independent of order: the result is bit-identical for any
worker count.  Only this module starts worker processes: ``eval_sum`` and
``scan`` share one fan-out over the tasks of all their specs and combine
each spec on its own, so a scan row equals the eval_sum of its spec.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailure
from .factored import ComplexEstimate, FactoredInteger, kernel, per_term_bound

CHUNK = 1 << 16

# Moduli the difference kernel accepts: a sum of two residues stays below
# 2q < 2^63, inside its unsigned 64-bit vectors.
DIFFERENCE_LIMIT = 1 << 62

# Positions per difference-kernel task at most: each task pays its own
# seeding and certificate, and separate tasks can run on separate workers.
SEGMENT = 1 << 23

# Points per _turn_points call: _unit_points takes its arguments BATCH at a
# time, and the difference kernel gathers consecutive blocks up to BATCH
# points, so that small blocks share the numpy dispatch.
BATCH = 1 << 14

# Unit points come from a table of the TURN-th roots of unity, 16 KB of cos
# and sin that stays in the L1 cache (see _turn_points).
TURN = 1 << 10


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


def _root_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi i / TURN for i = 0, ..., TURN, read-only.

    libm evaluates the first octant only; the other entries are its exact
    reflections, so the quarter turns are exact (and +0.0 folds -0.0).
    """
    eighth = TURN // 8
    x = [math.pi / 4 * (i / eighth) for i in range(eighth + 1)]
    c = [math.cos(v) for v in x]
    s = [math.sin(v) for v in x]
    qc = np.array(c + s[-2::-1])  # the first quadrant: cos(pi/2 - x) = sin x
    qs = np.array(s + c[-2::-1])
    cos = np.concatenate([qc[:-1], -qs[:-1], -qc[:-1], qs[:-1], [1.0]]) + 0.0
    sin = np.concatenate([qs[:-1], qc[:-1], -qs[:-1], -qc[:-1], [0.0]]) + 0.0
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


_ROOT_COS, _ROOT_SIN = _root_table()

# e(r / TURN) for r in [0, 1]: cos to degree 4 and sin to degree 5 in r, the
# Taylor coefficients of cos and sin at w r, w = 2 pi / TURN.
_W = 2 * math.pi / TURN
_COS2, _COS4 = -(_W**2) / 2, _W**4 / 24
_SIN1, _SIN3, _SIN5 = _W, -(_W**3) / 6, _W**5 / 120


def _workspace(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch for _turn_points on up to n points: one index and two float arrays."""
    return np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)


def _turn_points(
    t: np.ndarray, cos: np.ndarray, sin: np.ndarray, work: tuple[np.ndarray, ...]
) -> None:
    """Write cos and sin of 2 pi t / TURN into cos and sin, for each t in [0, TURN].

    Table-driven (P. T. P. Tang, ACM TOMS 15(2), 1989): i = floor(t)
    picks the root e(i / TURN) from the table, r = t - i is exact, and
    e(r / TURN) comes from short polynomials in r; the point is their
    product.  t is overwritten; work comes from _workspace and is at least
    as long as t.
    """
    idx, a, b = (w[: len(t)] for w in work)
    np.floor(t, out=b)
    np.subtract(t, b, out=t)
    np.copyto(idx, b, casting="unsafe")
    np.multiply(t, t, out=a)
    np.multiply(a, _COS4, out=cos)
    cos += _COS2
    cos *= a
    cos += 1.0
    np.multiply(a, _SIN5, out=sin)
    sin += _SIN3
    sin *= a
    sin += _SIN1
    sin *= t
    # every index lies in [0, TURN]; "clip" only skips the checked, buffered path
    np.take(_ROOT_COS, idx, out=t, mode="clip")
    np.take(_ROOT_SIN, idx, out=a, mode="clip")
    np.multiply(t, sin, out=b)
    np.multiply(a, sin, out=sin)
    np.multiply(a, cos, out=a)
    np.multiply(t, cos, out=cos)
    cos -= sin
    np.add(a, b, out=sin)


def _unit_points(q: int, args) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi v / q for each exact argument v in [0, q).

    v / q is the correctly rounded quotient of the two integers, so any q
    works (an int64 array with q < 2^53 divides in numpy, where v and q
    convert exactly).  Scaling it by TURN is exact, and _turn_points turns
    it into points, BATCH at a time on one workspace.
    """
    if isinstance(args, np.ndarray) and args.dtype == np.int64 and q < 2**53:
        t = args / q
    else:
        t = np.fromiter((v / q for v in args), dtype=np.float64, count=len(args))
    t *= TURN
    cos, sin = np.empty_like(t), np.empty_like(t)
    work = _workspace(min(len(t), BATCH))
    for lo in range(0, len(t), BATCH):
        part = slice(lo, lo + BATCH)
        _turn_points(t[part], cos[part], sin[part], work)
    return cos, sin


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
    per = max(1, BATCH // k)  # blocks whose points are made and summed together
    spare = np.empty(k, dtype=np.uint64)
    t, cos, sin = np.empty(per * k), np.empty(per * k), np.empty(per * k)
    work = _workspace(per * k)
    q64 = np.uint64(q)
    scale = TURN / q
    re, im = [], []
    for z in range(blocks):
        if z:
            # every sum is below 2q < 2^63; the wrapped difference is huge when it is negative
            for j in range(m):
                np.add(table[j], table[j + 1], out=table[j])
                np.subtract(table[j], q64, out=spare)
                np.minimum(table[j], spare, out=table[j])
        i = z % per
        np.multiply(value, scale, out=t[i * k : (i + 1) * k])
        if i == per - 1 or z == blocks - 1:
            used = i * k + (k if z < blocks - 1 else last)
            _turn_points(t[:used], cos[:used], sin[:used], work)
            re.append(cos[:used].sum())
            im.append(sin[:used].sum())
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
    coprimality test, 2500 + 4500 m numpy dispatch per block, 21000 per
    batch of points (_turn_points and two sums over up to BATCH points)
    and 12 + m per counted term, against 70 per position and 1500 per
    counted term on the batch path.  The kernel is taken only below half
    the batch estimate, since fixed per-call costs are left out; the
    estimates steer only the speed, as both kernels compute the same
    exact arguments.
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
    costs = []
    for s, m1 in candidates:
        if m1 * s > CHUNK:
            continue
        m, k, blocks = m1 - 1, s // d * phi_d, -(-N // s)
        batches = -(-blocks // max(1, BATCH // k))
        cost = (
            900 * (m + 2) * k + 70 * s
            + blocks * (2500 + 4500 * m) + batches * 21000 + (12 + m) * counted
        )
        costs.append((cost, s, m))
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


def _parallel_map(fn, tasks: list, threads: int) -> list:
    """[fn(t) for t in tasks], in task order.

    Worker processes start only when threads > 1 and there is more than
    one task; otherwise everything runs in the calling process.
    """
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _combine(parts: list[tuple[float, float, int, int]], precision: int) -> SumResult:
    re, im, counted, skipped = zip(*parts)
    terms = sum(counted)
    value = ComplexEstimate(math.fsum(re), math.fsum(im), terms * per_term_bound(precision))
    return SumResult(value, terms, sum(skipped))


def _evaluate(specs: list[SumSpec], threads: int, precision: int) -> list[SumResult]:
    """One result per spec, from a single fan-out over the tasks of all of them."""
    plans = [_plan(spec) for spec in specs]
    parts = iter(_parallel_map(_run, [task for plan in plans for task in plan], threads))
    return [_combine([next(parts) for _ in plan], precision) for plan in plans]


def eval_sum(spec: SumSpec, threads: int = 1, precision: int = 53) -> SumResult:
    """Evaluate the sum; deterministic for any thread count.

    Non-coprime n are skipped (never an error) and reported in the
    result.  err follows the documented rounding model: terms_counted
    times the per-term constant for the chosen precision.
    """
    return _evaluate([spec], threads, precision)[0]


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
    rows = []
    for spec, res in zip(specs, _evaluate(specs, threads, 53)):
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

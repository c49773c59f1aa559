"""Spans around calls into ``kls``'s public functions, and the per-layer metrics.

``from .x import f`` binds ``f`` in the importing module too, so each public
function is replaced under its name in every ``kls`` module that holds it.
Spans stay in memory as flat int64 arrays (name id, start, end, parent, work)
until the pass ends; a span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from array import array

# The layers are the modules of kls; verify is left out on purpose, since the
# benchmark builds its own cases and calls the check functions directly.
LAYERS = ("factored", "klsum", "postnikov", "weyl", "vmvt", "bounds", "cli")
# FactoredInteger's constructors, traced as factored.<name>.
CLASSMETHODS = ("parse", "from_factors", "from_value")


class Tracer:
    """Records one span per wrapped call, with an optional work count."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        # state the vmvt hooks keep between calls
        self.histograms: dict[tuple[int, int, int], object] = {}
        self.last_histogram = (-1, 0)
        self.j_count_keys: set[tuple[int, int, int]] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def record(self, name: str, start: int, end: int, parent: int = -1, work: int = 0) -> int:
        """Append a finished span; returns its index."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.work.append(work)
        return len(self.start) - 1

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording a span per call; `hook(tracer, span, args, kwargs, result)` gives its work."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.work.append(0)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if hook is not None:
                self.work[i] = hook(self, i, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and work."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {n: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0} for n in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl_s"] += (self.end[i] - self.start[i]) * 1e-9
            row["self_s"] += selfs[i] * 1e-9
            row["work"] += self.work[i]
        return out


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent and overlaps between them count
    once.  Spans are taken in start order, so each parent needs only the
    furthest end covered so far.
    """
    n = len(start)
    order = sorted(range(n), key=lambda i: (start[i], -end[i]))
    covered = [0] * n
    reach = [start[i] for i in range(n)]
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


# --------------------------------------------------------------------------
# Hooks: the work count a span carries, and counters kept where work happens.


def _eval_sum_hook(tr, i, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    tr.add("klsum.terms", result.terms_counted)
    chunk = getattr(sys.modules["kls.klsum"], "CHUNK", 1 << 16)
    if -(-spec.N // chunk) > 1:
        tr.add("klsum.multi_chunk_calls")
    return spec.N


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _w_direct_hook(tr, i, args, kwargs, result):
    return _arg(args, kwargs, 3, "h") ** 2


def _w_poly_hook(tr, i, args, kwargs, result):
    return _arg(args, kwargs, 1, "h") ** 2


def _p_hook(pos):
    def hook(tr, i, args, kwargs, result):
        return _arg(args, kwargs, pos, "P")

    return hook


def _histogram_hook(tr, i, args, kwargs, result):
    key = tuple(_arg(args, kwargs, pos, name) for pos, name in enumerate("kmP"))
    tr.last_histogram = (i, len(result.counts))
    if tr.histograms.get(key) is result:
        tr.add("vmvt.histogram_hits")
        return 0
    tr.histograms[key] = result
    k, _, P = key
    tr.add("vmvt.multisets", math.comb(P + k - 1, k))
    tr.add("vmvt.histogram_keys", len(result.counts))
    return len(result.counts)


def _j_count_hook(tr, i, args, kwargs, result):
    inst = _arg(args, kwargs, 0, "inst")
    key = (inst.k, inst.m, inst.P)
    if key in tr.j_count_keys:
        tr.add("vmvt.j_count_reuse")
    tr.j_count_keys.add(key)
    span, keys = tr.last_histogram
    if span > i:  # the histogram was fetched inside this call, so it was scanned
        tr.add("vmvt.keys_scanned", keys)
    return 0


HOOKS = {
    "klsum.eval_sum": _eval_sum_hook,
    "postnikov.w_direct": _w_direct_hook,
    "postnikov.w_poly": _w_poly_hook,
    "weyl.geometric_sum_check": _p_hook(1),
    "weyl.lemma3_check": _p_hook(3),
    "vmvt.power_sum_histogram": _histogram_hook,
    "vmvt.j_count": _j_count_hook,
}


def public_functions(kls) -> dict[str, object]:
    """Span name -> public function (and FactoredInteger classmethod) of each layer."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"kls.{layer}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = obj
    fi = kls.factored.FactoredInteger
    for attr in CLASSMETHODS:
        found[f"factored.{attr}"] = getattr(fi, attr).__func__
    return found


class instrument:
    """Context manager: wrap every public kls function for one tracer."""

    def __init__(self, kls, tracer: Tracer):
        self.kls = kls
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        functions = public_functions(self.kls)
        wrapped = {
            id(fn): self.tracer.wrap(name, fn, HOOKS.get(name)) for name, fn in functions.items()
        }
        modules = [self.kls] + [sys.modules[f"kls.{layer}"] for layer in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        fi = self.kls.factored.FactoredInteger
        for attr in CLASSMETHODS:
            self._patch(fi, attr, classmethod(wrapped[id(getattr(fi, attr).__func__)]))
        return self.tracer

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


# --------------------------------------------------------------------------
# Per-layer metrics from the traced pass (and the untraced 1-worker and
# nproc-worker passes of the same run).


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = metric.rsplit(".", 1)[-1]
    if "ns_per" in last:
        return "ns"
    if last.endswith("self_s"):
        return "s"
    if last.endswith("share"):
        return "share"
    if last.endswith("speedup"):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[dict], counters: list[dict], nproc: int,
                  t1: list[float], tn: list[float], traced: list[float]) -> dict[str, float]:
    """Per-layer metrics, averaged over the traced passes of one run."""
    k = len(summaries)
    names = {n for s in summaries for n in s}
    total = {
        n: {f: sum(s[n][f] for s in summaries if n in s) / k for f in ("calls", "incl_s", "self_s", "work")}
        for n in names
    }
    count: dict[str, float] = {}
    for cs in counters:
        for c, v in cs.items():
            count[c] = count.get(c, 0) + v / k

    def get(name, field):
        return total.get(name, {}).get(field, 0)

    eval_positions = get("klsum.eval_sum", "work")
    w_points = get("postnikov.w_direct", "work") + get("postnikov.w_poly", "work")
    weyl_terms = get("weyl.geometric_sum_check", "work") + get("weyl.lemma3_check", "work")
    hist_calls = get("vmvt.power_sum_histogram", "calls")
    j_calls = get("vmvt.j_count", "calls")
    m = {
        "klsum.eval_sum.calls": get("klsum.eval_sum", "calls"),
        "klsum.eval_sum.self_s": get("klsum.eval_sum", "self_s"),
        "klsum.ns_per_term_t1": _ratio(get("klsum.eval_sum", "incl_s") * 1e9, eval_positions),
        "klsum.pool_speedup": _ratio(statistics.median(t1), statistics.median(tn)),
        "klsum.pool_starts": count.get("klsum.multi_chunk_calls", 0) if nproc > 1 else 0,
        "klsum.coprime_share": _ratio(count.get("klsum.terms", 0), eval_positions),
        "factored.parse.self_s": get("factored.parse", "self_s"),
        "factored.kernel.calls": get("factored.kernel", "calls"),
        "factored.unit_root.calls": get("factored.unit_root", "calls"),
        "factored.unit_root.self_s": get("factored.unit_root", "self_s"),
        "postnikov.w_direct.self_s": get("postnikov.w_direct", "self_s"),
        "postnikov.w_direct.grid_points": get("postnikov.w_direct", "work"),
        "postnikov.w_poly.self_s": get("postnikov.w_poly", "self_s"),
        "postnikov.w_ns_per_point": _ratio(
            (get("postnikov.w_direct", "incl_s") + get("postnikov.w_poly", "incl_s")) * 1e9, w_points
        ),
        "postnikov.weyl_coefficients.self_s": get("postnikov.weyl_coefficients", "self_s"),
        "postnikov.make_context.calls": get("postnikov.make_context", "calls"),
        "postnikov.inverse_expansion.self_s": get("postnikov.inverse_expansion", "self_s"),
        "bounds.amplified_bound.self_s": get("bounds.amplified_bound", "self_s"),
        "bounds.theorem1_bound.calls": get("bounds.theorem1_bound", "calls"),
        "bounds.theorem1_bound.self_s": get("bounds.theorem1_bound", "self_s"),
        "weyl.geometric_sum_check.self_s": get("weyl.geometric_sum_check", "self_s"),
        "weyl.geometric_sum_check.terms": get("weyl.geometric_sum_check", "work"),
        "weyl.lemma3_check.self_s": get("weyl.lemma3_check", "self_s"),
        "weyl.lemma3_check.terms": get("weyl.lemma3_check", "work"),
        "weyl.ns_per_term": _ratio(
            (get("weyl.geometric_sum_check", "incl_s") + get("weyl.lemma3_check", "incl_s")) * 1e9,
            weyl_terms,
        ),
        "vmvt.power_sum_histogram.calls": hist_calls,
        "vmvt.power_sum_histogram.self_s": get("vmvt.power_sum_histogram", "self_s"),
        "vmvt.power_sum_histogram.keys": count.get("vmvt.histogram_keys", 0),
        "vmvt.power_sum_histogram.hit_share": _ratio(count.get("vmvt.histogram_hits", 0), hist_calls),
        "vmvt.multisets": count.get("vmvt.multisets", 0),
        "vmvt.j_count.calls": j_calls,
        "vmvt.j_count.self_s": get("vmvt.j_count", "self_s"),
        "vmvt.j_count.keys_scanned": count.get("vmvt.keys_scanned", 0),
        "vmvt.j_count.reuse_share": _ratio(count.get("vmvt.j_count_reuse", 0), j_calls),
        "vmvt.lemma4_check.self_s": get("vmvt.lemma4_check", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.overhead_share": _ratio(statistics.median(traced), statistics.median(t1)) - 1.0,
    }
    return m

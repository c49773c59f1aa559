"""Tests for the benchmark's own code: inputs, checkers and span accounting."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import kls  # noqa: E402
import kls.cli  # noqa: E402

from perfbench import oracle, workloads  # noqa: E402
from perfbench.run import tail  # noqa: E402
from perfbench.tracing import Tracer, instrument, self_times  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = workloads.WORKLOADS[name].inputs
    assert make(7) == make(7)
    assert make(7) != make(8)


# Small cases of every kind, and the kls call that answers each.
SMALL = {
    "eval-long": ({"q": "3^5", "N": 500, "a": 7, "b": 3, "c": -20}, workloads._eval_op),
    "eval-scan": (
        {"q": "2^3*5^4", "a": 7, "b": 11, "c": 13, "N_values": [10, 57, 300]},
        workloads._scan_op,
    ),
    "amplify": (
        {"kind": "amplify", "q": "3^6", "eps": "1/3", "h": 2, "N": 60, "a": 5, "b": 2, "c": 9},
        workloads._smoothing_case,
    ),
    "w": (
        {"kind": "w", "q": "5^5", "eps": "1/2", "a": 3, "b": 7, "c": 4, "n": 9, "h": 4},
        workloads._smoothing_case,
    ),
    "inverse": ({"kind": "inverse", "q": "2^9*7^4", "eps": "1/3", "z": 12345}, workloads._lemmas_case),
    "geometric": ({"kind": "geometric", "alpha": "5/17", "P": 40}, workloads._lemmas_case),
    "lemma3": (
        {"kind": "lemma3", "alpha": "355/113", "beta": "-3/7", "U": 40, "P": 90, "Q_max": 50},
        workloads._lemmas_case,
    ),
    "jcount": ({"kind": "jcount", "k": 2, "m": 2, "P": 9, "lam": [1, 5]}, workloads._counting_case),
    "lemma4": ({"kind": "lemma4", "m": 2, "tau": 1, "P": 5}, workloads._counting_case),
}

CHECKER = {
    "eval-long": "eval-long",
    "eval-scan": "eval-scan",
    "amplify": "checks",
    "w": "checks",
    "inverse": "checks",
    "geometric": "checks",
    "lemma3": "checks",
    "jcount": "checks",
    "lemma4": "checks",
}


def _replace_cell(text: str, row: int, col: int, fn) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _bump(x: str) -> str:
    return repr(float(x) + 1e-3)


# One deliberate corruption per kind: (description, function of the output).
CORRUPT = {
    "eval-long": [
        ("re", lambda o: dict(o, text=_replace_cell(o["text"], 1, 5, _bump))),
        ("terms", lambda o: dict(o, text=_replace_cell(o["text"], 1, 9, lambda t: str(int(t) + 1)))),
        ("exit code", lambda o: dict(o, rc=2)),
    ],
    "eval-scan": [
        ("im", lambda o: dict(o, text=_replace_cell(o["text"], 2, 2, _bump))),
        ("thm1_applicable", lambda o: dict(o, text=_replace_cell(o["text"], 3, 7, lambda _: "true"))),
        ("thm1_bound", lambda o: dict(o, text=_replace_cell(o["text"], 1, 6, _bump))),
    ],
    "amplify": [
        ("rhs", lambda o: [o[0] * 1.001, o[1], o[2]]),
        ("lhs", lambda o: [o[0], o[1] + 1e-3, o[2]]),
        ("verdict", lambda o: [o[0], o[1], False]),
    ],
    "w": [
        ("w_direct", lambda o: [o[0] + 1e-6] + o[1:]),
        ("w_poly", lambda o: o[:4] + [o[4] + 1e-6] + o[5:]),
        ("phase", lambda o: o[:6] + [o[6] + 1]),
    ],
    "inverse": [("value", lambda o: o + 1)],
    "geometric": [
        ("sum", lambda o: [o[0] + 1e-6] + o[1:]),
        ("bound", lambda o: [o[0], o[1], o[2], o[3] * (1 + 1e-9), o[4]]),
    ],
    "lemma3": [
        ("lhs", lambda o: [o[0] * (1 + 1e-9)] + o[1:]),
        ("approximation", lambda o: o[:3] + [o[3] + 1, o[4]]),
    ],
    "jcount": [("count", lambda o: o + 1)],
    "lemma4": [("count", lambda o: [o[0] - 1, o[1], o[2]]), ("verdict", lambda o: [o[0], o[1], False])],
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_checker_accepts_kls_and_rejects_each_corruption(kind):
    case, op = SMALL[kind]
    reference, check = oracle.CHECKS[CHECKER[kind]]
    out = op(kls, case, 1)
    ref = reference(case)
    assert check(case, out, ref) is None
    for what, corrupt in CORRUPT[kind]:
        bad = corrupt(copy.deepcopy(out))
        assert check(case, bad, ref) is not None, f"corrupted {what} passed the {kind} check"


def test_checks_pass_times_each_family_and_keeps_case_order():
    cases = [
        dict(SMALL["amplify"][0], family="smoothing"),
        dict(SMALL["geometric"][0], family="lemmas"),
        dict(SMALL["lemma3"][0], family="lemmas"),
        dict(SMALL["jcount"][0], family="counting"),
    ]
    [op] = workloads.WORKLOADS["checks"].run_pass(kls, cases, 1)
    assert op["error"] is None and op["cases"] == len(cases)
    assert sorted(op["parts"]) == ["counting", "lemmas", "smoothing"]
    assert op["ms"] == pytest.approx(sum(op["parts"].values()))
    reference, check = oracle.CHECKS["checks"]
    for case, out in zip(cases, op["outputs"], strict=True):
        assert check(case, out, reference(case)) is None


def test_reference_counts_match_brute_force():
    lo, hi, primes = -37, 401, [2, 3, 7]
    assert oracle.coprime_count(lo, hi, primes) == sum(
        1 for n in range(lo + 1, hi + 1) if all(n % p for p in primes)
    )
    k, m, P, lam = 2, 2, 6, [1, 5]
    brute = sum(
        1
        for x1 in range(1, P + 1) for x2 in range(1, P + 1)
        for y1 in range(1, P + 1) for y2 in range(1, P + 1)
        if x1 + x2 == y1 + y2 + lam[0] and x1**2 + x2**2 == y1**2 + y2**2 + lam[1]
    )
    assert oracle.Histogram(k, m, P).count(lam) == brute


def test_self_time_on_hand_built_tree():
    tr = Tracer()
    root = tr.record("root", 0, 100)
    a = tr.record("a", 10, 30, parent=root)
    tr.record("g", 12, 18, parent=a)
    tr.record("b", 20, 50, parent=root)  # overlaps a: the overlap counts once
    tr.record("c", 90, 120, parent=root)  # runs past root: clipped at 100
    assert self_times(tr.start, tr.end, tr.parent) == [50, 14, 6, 30, 30]
    summary = tr.summary()
    assert summary["root"]["self_s"] == pytest.approx(50e-9)
    assert summary["a"]["incl_s"] == pytest.approx(20e-9)


def test_instrument_wraps_every_binding_and_restores_them(capsys):
    original = kls.klsum.eval_sum
    tr = Tracer()
    with instrument(kls, tr):
        assert kls.cli.eval_sum is not original and kls.eval_sum is not original
        assert kls.cli.main(["eval", "--q", "3^4", "--N", "100", "--a", "2", "--threads", "1"]) == 0
    assert capsys.readouterr().out.startswith("q,N,a,b,c,")
    assert kls.klsum.eval_sum is original and kls.cli.eval_sum is original
    names = [tr.names[i] for i in tr.name]
    parents = [names[p] if p >= 0 else None for p in tr.parent]
    i = names.index("klsum.eval_sum")
    assert parents[i] == "cli.main"
    assert "factored.parse" in names and "factored.kernel" in names
    assert tr.summary()["klsum.eval_sum"]["work"] == 100


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail([3.0, 1.0, 2.0])[0] == 3.0
    values = [float(i) for i in range(1, 41)]
    value, label = tail(values)
    assert value == 30.0 and sum(v > value for v in values) == 10 and "40 samples" in label

"""Suite-runner behavior: zero failures on healthy code, seed determinism."""

from fractions import Fraction

import pytest

from kls import verify
from kls.factored import FactoredInteger
from kls.verify import SUITES, run_suite


def test_all_suites_registered():
    assert sorted(SUITES) == [
        "amplify",
        "lemma1",
        "lemma2",
        "lemma3",
        "lemma4",
        "shift",
        "w-identity",
    ]


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nosuch")


def test_lemma1_small():
    rep = run_suite("lemma1", seed=7, cases=50)
    assert rep["suite"] == "lemma1"
    assert rep["cases"] == 50
    assert rep["failures"] == 0
    assert rep["worst_residual"] == 0


def test_lemma2_small():
    rep = run_suite("lemma2", seed=11, cases=200)
    assert rep["failures"] == 0
    assert rep["min_slack"] >= 0.0


def test_lemma3_small():
    rep = run_suite("lemma3", seed=13, cases=150)
    assert rep["failures"] == 0
    assert rep["min_slack"] >= 0.0


def test_lemma4_default_budget_skips():
    rep = run_suite("lemma4", seed=0)
    assert rep["failures"] == 0
    assert [3, 3, 8] in rep["skipped_cases"]
    assert rep["cases"] + rep["skipped"] == 63
    assert rep["worst_log_margin"] < 0.0


def test_lemma4_big_budget_covers_grid():
    rep = run_suite("lemma4", seed=0, budget=2 * 10**8)
    assert rep["failures"] == 0
    assert rep["skipped"] == 0
    assert rep["cases"] == 63


def test_w_identity_small():
    rep = run_suite("w-identity", seed=3, cases=30)
    assert rep["failures"] == 0
    assert rep["worst_abs_diff"] <= 1e-9
    assert len(rep["rows"]) == 30
    row = rep["rows"][0]
    assert sorted(row) == ["abs_diff", "eps", "h", "lhs", "n", "q", "rhs"]
    assert row["abs_diff"] <= rep["worst_abs_diff"] or row["abs_diff"] <= 1e-9


def test_amplify_all_combos():
    rep = run_suite("amplify", seed=5, cases=8)
    assert rep["failures"] == 0
    assert rep["min_rel_margin"] > 0.0
    assert {r["q"] for r in rep["rows"]} == {"2^40", "3^6", "2^4*3^4", "5^5", "2^10"}
    assert {r["eps"] for r in rep["rows"]} == {"1/5", "1/3", "1/2"}


def test_amplify_fails_without_a_nontrivial_row(monkeypatch):
    rep = run_suite("amplify", seed=5, cases=1)
    row = rep["rows"][0]
    assert row["q"] == "2^40" and row["terms"] == 50000
    assert row["nontrivial"] and row["lhs"] <= row["rhs"] < row["terms"]
    assert rep["nontrivial_cases"] == 1 and rep["failures"] == 0
    # with only trivial rows every inequality holds by the triangle inequality
    desk = (FactoredInteger.parse("3^6"), Fraction(1, 3), 27, 3)
    monkeypatch.setattr(verify, "_NONTRIVIAL_AMPLIFY", desk)
    rep = run_suite("amplify", seed=5, cases=4)
    assert not any(r["nontrivial"] for r in rep["rows"])
    assert rep["nontrivial_cases"] == 0 and rep["failures"] == 1


def test_shift_small():
    rep = run_suite("shift", seed=17, cases=40)
    assert rep["failures"] == 0
    assert rep["worst_excess"] <= 0.0


def test_seed_determinism():
    a = run_suite("w-identity", seed=42, cases=10)
    b = run_suite("w-identity", seed=42, cases=10)
    assert a == b
    c = run_suite("w-identity", seed=43, cases=10)
    assert c["rows"] != a["rows"]


def test_seed_determinism_shift():
    a = run_suite("shift", seed=9, cases=15)
    b = run_suite("shift", seed=9, cases=15)
    assert a == b

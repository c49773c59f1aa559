"""Command-line contract: exit codes, formats, env fallbacks, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kls.cli import main
from kls.verify import SUITES
from kls.vmvt import VinogradovInstance, j_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--q", "3^2", "--N", "8", "--a", "1", "--b", "0", "--c", "0")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "q,N,a,b,c,re,im,abs,err,terms,skipped"
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["q"] == "3^2"
    assert float(cells["abs"]) < 1e-12
    assert cells["terms"] == "6"
    assert cells["skipped"] == "2"


def test_eval_single_term_abs_one(capsys):
    code, out, _ = run(capsys, "eval", "--q", "3^4", "--N", "1", "--a", "1")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[7] == "1"


def test_eval_not_coprime_exit2(capsys):
    code, _, err = run(capsys, "eval", "--q", "4", "--N", "2", "--a", "2")
    assert code == 2
    assert "error" in err


def test_eval_malformed_modulus_exit2(capsys):
    assert run(capsys, "eval", "--q", "x^2", "--N", "1", "--a", "1")[0] == 2
    assert run(capsys, "eval", "--q", "1", "--N", "1", "--a", "1")[0] == 2
    assert run(capsys, "eval", "--q", "6^2", "--N", "1", "--a", "1")[0] == 2


def test_scan_csv_contract(capsys):
    code, out, _ = run(capsys, "scan", "--q", "9", "--a", "1", "--N-values", "2,4,8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,re,im,abs,terms,trivial,thm1_bound,thm1_applicable,ratio"
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "8"]
    assert lines[1].split(",")[7] == "false"


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--q", "9", "--a", "1", "--format", "json",
                       "--N-values", "8")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert sorted(rows[0]) == sorted(
        ["N", "re", "im", "abs", "terms", "trivial", "thm1_bound", "thm1_applicable", "ratio"]
    )
    assert rows[0]["abs"] < 1e-12


def test_verify_success_exit0(capsys):
    code, out, _ = run(capsys, "verify", "lemma1", "--seed", "7", "--cases", "20")
    assert code == 0
    assert "lemma1" in out
    assert "failures" in out


def test_verify_failure_exit1(capsys, monkeypatch):
    def rigged(seed, cases, budget):
        return {"suite": "rigged", "seed": seed, "cases": 1, "failures": 1}

    monkeypatch.setitem(SUITES, "rigged", rigged)
    code, out, _ = run(capsys, "verify", "rigged")
    assert code == 1
    assert "rigged" in out


def test_verify_unknown_suite_exit2(capsys):
    assert run(capsys, "verify", "nosuch")[0] == 2


def test_verify_csv_drops_nested_fields(capsys):
    code, out, _ = run(capsys, "verify", "amplify", "--cases", "4")
    assert code == 0
    header = out.strip().split("\n")[0].split(",")
    assert "rows" not in header
    assert "min_rel_margin" in header


def test_jcount_oracle_case(capsys):
    code, out, _ = run(capsys, "jcount", "--k", "2", "--m", "2", "--P", "2",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d == {"k": 2, "m": 2, "P": 2, "lambda": [0, 0], "count": 6}


def test_jcount_budget_exit3(capsys):
    code, _, err = run(capsys, "jcount", "--k", "8", "--m", "4", "--P", "50")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--q", "9", "--N", "11", "--a", "1"],
        ["scan", "--q", "9", "--a", "1", "--N-values", "4,7"],
    ],
    ids=["eval", "scan"],
)
def test_eval_and_scan_budget_exit3(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "10")
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_jcount_explicit_offsets(capsys):
    code, out, _ = run(capsys, "jcount", "--k", "2", "--m", "2", "--P", "3",
                       "--lambda", "0,3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    expect = j_count(VinogradovInstance(k=2, m=2, P=3, lam=(0, 3)))
    assert d["count"] == expect
    assert d["lambda"] == [0, 3]


def test_bound_json_schema(capsys):
    code, out, _ = run(capsys, "bound", "--q", "3^40", "--N", "100", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert list(d) == ["q", "N", "gamma", "bound", "applicable", "failed_conditions"]
    assert d["applicable"] is False
    assert set(d["failed_conditions"]) == {"kernel_threshold", "lower_threshold"}
    assert 0.0 < d["bound"] < 100.0


def test_bound_delta_variant(capsys):
    code, out, _ = run(capsys, "bound", "--q", "3^40", "--N", "100",
                       "--delta", "1/20", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["applicable"] is False
    assert d["gamma"] > 0.0
    assert run(capsys, "bound", "--q", "3^40", "--N", "100", "--delta", "0.5")[0] == 2


def test_regime_concrete_empty_window(capsys):
    code, out, _ = run(capsys, "regime", "--q", "3^40", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["window_nonempty"] is False
    assert d["binding_constraint"] == "lower_threshold"


def test_regime_symbolic_nonempty(capsys):
    code, out, _ = run(capsys, "regime", "--ln-q", "8e9", "--format", "json")
    assert code == 0
    assert json.loads(out)["window_nonempty"] is True


def test_regime_argument_validation(capsys):
    assert run(capsys, "regime")[0] == 2
    assert run(capsys, "regime", "--q", "9", "--ln-q", "50")[0] == 2


@pytest.mark.parametrize("ln_q", ["-5", "0", "nan", "inf"])
def test_regime_rejects_nonpositive_or_nonfinite_ln_q(capsys, ln_q):
    code, _, err = run(capsys, "regime", "--ln-q", ln_q)
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("cases", ["-1", "0"])
def test_verify_cases_below_one_exit2(capsys, cases):
    code, out, err = run(capsys, "verify", "lemma1", "--cases", cases)
    assert code == 2
    assert out == ""
    assert "cases" in err


def test_verify_lemma4_cases_caps_grid(capsys):
    code, out, _ = run(capsys, "verify", "lemma4", "--cases", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["cases"] == 5 and report["skipped"] == 0


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite constant {name} in JSON output")

    return json.loads(text, parse_constant=reject)


def test_verify_lemma4_all_over_budget_exit3(capsys):
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "verify", "lemma4", "--budget", "1", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "budget" in err and "Traceback" not in err


def test_verify_amplify_all_over_budget_exit3(capsys):
    code, out, err = run(capsys, "verify", "amplify", "--cases", "3", "--budget", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_json_is_strict(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--cases", "3", "--budget", "10000",
                       "--format", "json")
    assert code == 0
    assert _strict_json(out)["cases"] >= 1


def test_json_maps_non_finite_floats_to_null(capsys, monkeypatch):
    def rigged(seed, cases, budget):
        return {"suite": "rigged", "failures": 0, "margins": [float("-inf"), float("nan"), 1.5]}

    monkeypatch.setitem(SUITES, "rigged", rigged)
    code, out, _ = run(capsys, "verify", "rigged", "--format", "json")
    assert code == 0
    assert _strict_json(out)["margins"] == [None, None, 1.5]


@pytest.mark.parametrize(
    "argv",
    [
        ["jcount", "--k", "3", "--m", "2", "--P", "9", "--lambda", "2,12"],
        ["jcount", "--k", "2", "--m", "3", "--P", "40", "--format", "json"],
        ["verify", "lemma4", "--format", "json"],
        ["verify", "lemma4"],
    ],
)
def test_counting_output_identical_across_threads(capsys, argv):
    from kls import vmvt

    outs = []
    for threads in ("1", "2"):
        vmvt._build_histogram.cache_clear()  # build every histogram again at this thread count
        code, out, _ = run(capsys, *argv, "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_amplify_identical_across_threads_and_nontrivial(capsys):
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, "verify", "amplify", "--cases", "3", "--format", "json",
                           "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["nontrivial_cases"] >= 1


def test_err_grows_as_precision_drops(capsys):
    base = ["eval", "--q", "3^2", "--N", "8", "--a", "1", "--format", "json"]
    errs = [json.loads(run(capsys, *base, "--precision", bits)[1])["err"] for bits in ("40", "53")]
    assert errs[0] >= errs[1] > 0


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run(capsys, "eval", "--q", "5^3", "--N", "30", "--a", "3", "--b", "2")
    assert code == 0
    target = tmp_path / "row.csv"
    code2, out2, _ = run(capsys, "eval", "--q", "5^3", "--N", "30", "--a", "3", "--b", "2",
                         "--out", str(target))
    assert code2 == 0
    assert out2 == ""
    assert target.read_text(encoding="utf-8") == out


def test_unwritable_out_exit2(capsys, tmp_path):
    target = tmp_path / "missing" / "row.csv"
    code, out, err = run(capsys, "eval", "--q", "3^2", "--N", "8", "--a", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _mostly(valid, invalid):
    """Draw from `valid` nine times in ten, from the sampled `invalid` values otherwise."""
    return st.tuples(st.integers(0, 9), valid, st.sampled_from(invalid)).map(
        lambda t: t[1] if t[0] else t[2]
    )


_MODULI = _mostly(
    st.sampled_from(["9", "3^2", "2^3*5^2", "5^4", "7^3*11^2", "2^64"]),
    ["1", "0", "-9", "6^2", "x^2", "3^0", ""],
)
_NUMBERS = _mostly(st.integers(-3, 40).map(str), ["x", "1.5", str(2**70)])
_FLOATS = _mostly(st.sampled_from(["50", "8e9", "1e4"]), ["0", "-1", "nan", "inf", "1e400", "x"])
_DELTAS = _mostly(st.sampled_from(["1/20", "0.05"]), ["1/2", "0", "x", "1/0"])


@st.composite
def _argv(draw, out_dir):
    """One command line from the CLI grammar, with values mostly valid.

    Every line carries --threads and a --budget of at most 10^4, and
    verify lines carry --cases, so no line starts a process pool or runs
    long; each flag is sometimes dropped, which reaches argparse's errors.
    """

    def opt(flag, values, keep=9):
        return [flag, draw(values)] if draw(st.integers(0, 9)) < keep else []

    command = draw(st.sampled_from(["eval", "scan", "verify", "bound", "regime", "jcount"]))
    argv = [command]
    if command == "eval":
        argv += opt("--q", _MODULI) + opt("--N", _NUMBERS) + opt("--a", _NUMBERS)
        argv += opt("--b", _NUMBERS, 5) + opt("--c", _NUMBERS, 5)
    elif command == "scan":
        lists = st.lists(st.integers(-2, 60).map(str), max_size=4).map(",".join)
        argv += opt("--q", _MODULI) + opt("--a", _NUMBERS) + opt("--c", _NUMBERS, 5)
        argv += opt("--N-values", _mostly(lists, ["1,x"]))
    elif command == "verify":
        argv += [draw(_mostly(st.sampled_from(sorted(SUITES)), ["nosuch"]))]
        argv += ["--cases", draw(_mostly(st.integers(1, 3), [-1, 0]).map(str))]
    elif command == "bound":
        argv += opt("--q", _MODULI) + opt("--N", _NUMBERS) + opt("--delta", _DELTAS, 5)
    elif command == "regime":
        argv += opt("--q", _MODULI, 5) + opt("--ln-q", _FLOATS, 5) + opt("--ln-d", _FLOATS, 3)
        argv += opt("--delta", _DELTAS, 3)
    else:
        small = _mostly(st.integers(1, 4), [-1, 0]).map(str)
        lam = st.lists(st.integers(-9, 9).map(str), max_size=4).map(",".join)
        argv += opt("--k", small) + opt("--m", small) + opt("--P", small) + opt("--lambda", lam, 5)
    argv += ["--threads", draw(_mostly(st.just("1"), ["0"]))]
    argv += ["--budget", draw(_mostly(st.integers(1, 10**4), [0, -5]).map(str))]
    argv += opt("--precision", _mostly(st.integers(1, 53), [0, 60]).map(str), 3)
    argv += opt("--seed", _mostly(st.sampled_from(["0", "7"]), ["-1", str(2**64)]), 3)
    argv += opt("--format", _mostly(st.sampled_from(["csv", "json"]), ["xml"]), 5)
    argv += opt("--out", st.sampled_from([out_dir / "out.txt", out_dir / "no" / "out.txt"]).map(str), 2)
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-out")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_to_3_without_traceback(data, out_dir):
    argv = data.draw(_argv(out_dir))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_byte_identical_across_threads_and_runs(capsys):
    argv = ["eval", "--q", "2^2*3^4*5^2", "--N", "150000", "--a", "7", "--b", "3"]
    code, single, _ = run(capsys, *argv, "--threads", "1")
    assert code == 0
    _, again, _ = run(capsys, *argv, "--threads", "1")
    _, pooled, _ = run(capsys, *argv, "--threads", "2")
    assert single == again
    assert single == pooled


def test_env_overrides_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("KLS_SEED", "9")
    monkeypatch.setenv("KLS_FORMAT", "json")
    code, out, _ = run(capsys, "verify", "shift", "--cases", "5")
    assert code == 0
    assert json.loads(out)["seed"] == 9
    code, out, _ = run(capsys, "verify", "shift", "--cases", "5", "--seed", "4")
    assert json.loads(out)["seed"] == 4


def test_env_bad_integer_exit2(capsys, monkeypatch):
    monkeypatch.setenv("KLS_THREADS", "abc")
    code, _, err = run(capsys, "eval", "--q", "9", "--N", "1", "--a", "1")
    assert code == 2
    assert "KLS_THREADS" in err


def test_config_validation_exit2(capsys):
    base = ["eval", "--q", "9", "--N", "1", "--a", "1"]
    assert run(capsys, *base, "--precision", "60")[0] == 2
    assert run(capsys, *base, "--precision", "0")[0] == 2
    assert run(capsys, *base, "--seed", "-1")[0] == 2
    assert run(capsys, *base, "--seed", str(2**64))[0] == 2
    assert run(capsys, *base, "--budget", "0")[0] == 2
    assert run(capsys, *base, "--threads", "0")[0] == 2


def test_json_bigints_as_strings(capsys):
    code, out, _ = run(capsys, "eval", "--q", "2^64", "--N", "1", "--a",
                       str(2**60 + 1), "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert isinstance(d["a"], str)
    assert int(d["a"]) == 2**60 + 1
    assert isinstance(d["N"], int)


def test_help_and_missing_command(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2

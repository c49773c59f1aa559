"""Command-line surface: eval, scan, verify, bound, regime, jcount.

Every subcommand takes the global flags --threads, --precision, --seed,
--budget, --format, --out; each falls back to a KLS_-prefixed environment
variable (KLS_THREADS, KLS_PRECISION, KLS_SEED, KLS_BUDGET, KLS_FORMAT,
KLS_OUT) and then to the built-in default.  Moduli use the factored
literal syntax p1^a1*p2^a2 (plain integers below 2^48 are factored on
the fly).

The randomized verify suites draw from random.Random, the stdlib
Mersenne Twister, seeded from --seed; a report is reproducible from the
seed it echoes.  CSV floats carry 17 significant digits; JSON integers
beyond 2^53 are emitted as strings so nothing is rounded in transit.

Exit codes: 0 success, 1 a verify suite reported failures, 2 usage
error (an unwritable --out included), 3 cost estimate above budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bounds import regime_report, theorem1_bound, theorem2_bound
from .errors import DEFAULT_BUDGET, BudgetExceeded, KlsError
from .factored import FactoredInteger
from .klsum import SCAN_FIELDS, SumSpec, eval_sum, scan
from .verify import SUITES, run_suite
from .vmvt import VinogradovInstance, j_count


@dataclass(frozen=True)
class RunConfig:
    """Resolved run-wide knobs shared by all subcommands."""

    threads: int
    precision_bits: int
    seed: int
    budget: int
    output_format: str
    out: str | None = None

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not 1 <= self.precision_bits <= 53:
            raise ValueError(
                f"precision must lie in [1, 53] bits, got {self.precision_bits}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.output_format!r}")


def _env(name: str) -> str | None:
    raw = os.environ.get(name)
    return raw if raw else None


def _env_int(name: str) -> int | None:
    raw = _env(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    threads = args.threads if args.threads is not None else _env_int("KLS_THREADS")
    precision = (
        args.precision if args.precision is not None else _env_int("KLS_PRECISION")
    )
    seed = args.seed if args.seed is not None else _env_int("KLS_SEED")
    budget = args.budget if args.budget is not None else _env_int("KLS_BUDGET")
    fmt = args.format if args.format is not None else _env("KLS_FORMAT")
    out = args.out if args.out is not None else _env("KLS_OUT")
    return RunConfig(
        threads=threads if threads is not None else os.cpu_count() or 1,
        precision_bits=precision if precision is not None else 53,
        seed=seed if seed is not None else 0,
        budget=budget if budget is not None else DEFAULT_BUDGET,
        output_format=fmt if fmt is not None else "csv",
        out=out,
    )


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{what} needs at least one value")
    return values


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return ";".join(_cell(x) for x in v)
    return str(v)


def _csv_table(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > 2**53 else obj
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, Fraction):
        return str(obj)
    return str(obj)


def _json(obj) -> str:
    """Strict JSON: non-finite floats print as null, and any that bypass `_json_safe` raise."""
    return json.dumps(_json_safe(obj), indent=2, allow_nan=False) + "\n"


def _render(payload, cfg: RunConfig) -> str:
    """One flat mapping as a one-row CSV table or a JSON object."""
    if cfg.output_format == "json":
        return _json(payload)
    keys = [k for k, v in payload.items() if not isinstance(v, dict)]
    return _csv_table(keys, [[payload[k] for k in keys]])


def _charge(cost: int, cfg: RunConfig, what: str) -> None:
    if cost > cfg.budget:
        raise BudgetExceeded(f"{what} exceeds budget", cost, cfg.budget)


def _cmd_eval(args, cfg: RunConfig):
    spec = SumSpec(
        q=FactoredInteger.parse(args.q), N=args.N, a=args.a, b=args.b, c=args.c
    )
    _charge(spec.N, cfg, "window length N")
    res = eval_sum(spec, threads=cfg.threads, precision=cfg.precision_bits)
    payload = {
        "q": str(spec.q),
        "N": spec.N,
        "a": spec.a,
        "b": spec.b,
        "c": spec.c,
        "re": res.value.re,
        "im": res.value.im,
        "abs": res.value.abs_value(),
        "err": res.value.err,
        "terms": res.terms_counted,
        "skipped": res.skipped,
    }
    return 0, _render(payload, cfg)


def _cmd_scan(args, cfg: RunConfig):
    q = FactoredInteger.parse(args.q)
    N_values = _parse_int_list(args.N_values, "--N-values")
    _charge(sum(N_values), cfg, "total window length")
    rows = scan(q, args.a, args.b, args.c, N_values, threads=cfg.threads)
    if cfg.output_format == "json":
        return 0, _json(rows)
    return 0, _csv_table(SCAN_FIELDS, [[row[k] for k in SCAN_FIELDS] for row in rows])


def _cmd_verify(args, cfg: RunConfig):
    report = run_suite(args.suite, seed=cfg.seed, cases=args.cases, budget=cfg.budget)
    code = 0 if report["failures"] == 0 else 1
    if cfg.output_format == "json":
        return code, _json(report)
    flat = {k: v for k, v in report.items() if not isinstance(v, (list, dict))}
    return code, _csv_table(list(flat), [list(flat.values())])


def _cmd_bound(args, cfg: RunConfig):
    q = FactoredInteger.parse(args.q)
    if args.delta is not None:
        report = theorem2_bound(q, args.N, Fraction(args.delta))
    else:
        report = theorem1_bound(q, args.N)
    payload = {
        "q": str(q),
        "N": args.N,
        "gamma": report.gamma,
        "bound": report.bound_value,
        "applicable": report.applicable,
        "failed_conditions": list(report.failed_conditions),
    }
    return 0, _render(payload, cfg)


def _cmd_regime(args, cfg: RunConfig):
    report = regime_report(
        q=FactoredInteger.parse(args.q) if args.q is not None else None,
        ln_q=args.ln_q,
        ln_d=args.ln_d,
        delta=Fraction(args.delta) if args.delta is not None else None,
    )
    return 0, _render(report, cfg)


def _cmd_jcount(args, cfg: RunConfig):
    lam = _parse_int_list(args.lam, "--lambda") if args.lam else [0] * args.m
    inst = VinogradovInstance(k=args.k, m=args.m, P=args.P, lam=tuple(lam))
    count = j_count(inst, budget=cfg.budget)
    payload = {"k": args.k, "m": args.m, "P": args.P, "lambda": lam, "count": count}
    return 0, _render(payload, cfg)


_HANDLERS = {
    "eval": _cmd_eval,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "regime": _cmd_regime,
    "jcount": _cmd_jcount,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None, help="worker processes")
    common.add_argument(
        "--precision", type=int, default=None, help="precision in bits (<= 53) behind eval's err"
    )
    common.add_argument("--seed", type=int, default=None, help="RNG seed (64-bit unsigned)")
    common.add_argument(
        "--budget", type=int, default=None, help="cost ceiling for heavy operations"
    )
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--out", default=None, metavar="FILE", help="write output here")

    parser = argparse.ArgumentParser(
        prog="kls",
        description="Incomplete Kloosterman sums to powerful moduli: "
        "evaluation, verification suites, and bound reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one sum")
    p.add_argument("--q", required=True, help="modulus, factored syntax")
    p.add_argument("--N", required=True, type=int, help="window length")
    p.add_argument("--a", required=True, type=int, help="inverse-term coefficient")
    p.add_argument("--b", type=int, default=0, help="linear-term coefficient")
    p.add_argument("--c", type=int, default=0, help="window start")

    p = sub.add_parser("scan", parents=[common], help="sweep one spec over many N")
    p.add_argument("--q", required=True)
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--c", type=int, default=0)
    p.add_argument(
        "--N-values", dest="N_values", required=True, help="comma-separated window lengths"
    )

    p = sub.add_parser("verify", parents=[common], help="run a named check suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--cases", type=int, default=None, help="override the suite size")

    p = sub.add_parser("bound", parents=[common], help="bound formula report")
    p.add_argument("--q", required=True)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--delta", default=None, help="use the delta-parameterized variant")

    p = sub.add_parser("regime", parents=[common], help="applicability window report")
    p.add_argument("--q", default=None)
    p.add_argument("--ln-q", dest="ln_q", type=float, default=None)
    p.add_argument("--ln-d", dest="ln_d", type=float, default=None)
    p.add_argument("--delta", default=None)

    p = sub.add_parser("jcount", parents=[common], help="power-sum system solution count")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--P", required=True, type=int)
    p.add_argument("--lambda", dest="lam", default=None, help="comma-separated offsets")

    return parser


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out_path = None
    try:
        cfg = _resolve_config(args)
        out_path = cfg.out
        code, text = _HANDLERS[args.command](args, cfg)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KlsError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_out(text, out_path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

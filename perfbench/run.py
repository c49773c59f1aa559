"""Run one benchmark workload against the ``kls`` sources of this checkout.

    python3 perfbench/run.py --workload eval-long --seed 1 --seconds 10 --trace 0

Every pass runs in a fresh interpreter (``perfbench/child.py``), one after the
other: a closed loop with one client, each operation issued after the previous
one returns, at ``nproc`` workers.  Passes repeat until ``--seconds`` of timed
work has been done.  This process never imports ``kls``; it rebuilds each
pass's inputs from the seed and checks every output against ``oracle``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` each round is a pass at ``nproc`` workers, one at a single
worker and one traced pass at a single worker, and the last line reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.  The exit
code is 0 when every output checked out, 1 when any did not, 2 on a usage
error or when the checkout holds no ``src/kls``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.metadata
import json
import math
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.oracle import CHECKS  # noqa: E402
from perfbench.tracing import layer_metrics, layer_unit  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
# Stop starting passes after this much wall time, whatever --seconds says.
WALL_CAP_S = 100


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(job: dict) -> dict:
    """Run one child interpreter to completion and return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass {job} did not finish in {CHILD_TIMEOUT_S} s") from None
    finally:
        # The child leads its own process group, which holds its kls pool
        # workers too: on any way out, kill what is left of it and reap it.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"pass {job} exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, and its label.

    Below 21 samples that percentile would sit at or under the median, so
    the slowest sample is reported instead and the label says so.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max of {n} samples (fewer than 21)"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} samples, 10 beyond it"


class Checker:
    """Checks pass outputs against references computed once per case.

    References are spread over the oracle pool: across cases when there are
    several, and across blocks of the window when there is one long sum.
    """

    def __init__(self, workload: str, cases: list[dict], pool: ProcessPoolExecutor):
        self.reference, self.check = CHECKS[workload]
        self.cases = cases
        self.pool = pool
        self.refs: list | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _references(self) -> list:
        if self.refs is None:
            if len(self.cases) > 1:
                chunk = max(1, len(self.cases) // 64)
                self.refs = list(self.pool.map(self.reference, self.cases, chunksize=chunk))
            else:
                mapper = functools.partial(self.pool.map, chunksize=8)
                self.refs = [self.reference(case, mapper) for case in self.cases]
        return self.refs

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def __call__(self, ops: list[dict]) -> None:
        refs = self._references()
        i = 0
        for op in ops:
            cases = self.cases[i : i + op["cases"]]
            i += op["cases"]
            self.attempted += len(cases)
            if op["error"]:
                self._fail(len(cases), f"operation raised {op['error']}")
                continue
            for j, (case, out) in enumerate(zip(cases, op["outputs"]), start=i - len(cases)):
                try:
                    why = self.check(case, out, refs[j])
                except (TypeError, ValueError, KeyError, IndexError) as exc:
                    why = f"malformed output {out!r:.120}: {exc}"
                if why:
                    self._fail(1, f"case {j}: {why}")
        if i != len(self.cases):
            self._fail(len(self.cases) - i, f"pass covered {i} of {len(self.cases)} cases")


# The names the metrics carry in the workload notes, printed beside the
# generic names every workload reports.
NOTE_NAMES = {
    "eval-long": lambda m: [("eval_terms_per_s", m["work_per_s"][0], "1/s")],
    "eval-scan": lambda m: [
        ("scan_sums_per_s", m["work_per_s"][0], "1/s"),
        ("scan_p50_ms", m["op_p50_ms"][0], "ms"),
        ("scan_tail_ms", m["op_tail_ms"][0], "ms"),
    ],
    "checks": lambda m: [],
}


def untraced(name: str, seed: int, seconds: float, workers: int, checker: Checker, log):
    workload = WORKLOADS[name]
    job = {"workload": name, "seed": seed, "threads": workers, "trace": False}
    start = time.monotonic()
    passes, timed = [], 0.0
    while not passes or (timed < seconds and time.monotonic() - start < WALL_CAP_S):
        result = run_child(job)
        passes.append(result)
        timed += sum(op["ms"] for op in result["ops"]) * 1e-3
    setup = [p["setup_s"] for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child(dict(job, setup_only=True))["setup_s"])
    for p in passes:
        checker(p["ops"])

    latencies = [op["ms"] for p in passes for op in p["ops"]]
    work = len(passes) * sum(workload.work(c) for c in checker.cases)
    tail_ms, tail_label = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MiB"),
        "ok_share": (1.0 - checker.failed / checker.attempted, "share"),
        "work_per_s": (work / timed, "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
    }
    log(f"{name}: {len(passes)} passes, {len(latencies)} timed operations, "
        f"{timed:.2f} s timed, {len(setup)} set-ups")
    log(f"{name}: work_per_s counts {workload.work_unit}; op_tail_ms is the {tail_label}")
    log(f"{name}: fail_share = {checker.failed}/{checker.attempted}")
    for alias, value, unit in NOTE_NAMES[name](metrics):
        log(f"{name}: {alias} = {value:.6g} {unit}")
    parts = [op["parts"] for p in passes for op in p["ops"] if "parts" in op]
    for family in parts[0] if parts else ():
        value = statistics.median(x[family] for x in parts) * 1e-3
        log(f"{name}: {family}_s = {value:.6g} s, median of {len(parts)} passes")
    return metrics


def traced(name: str, seed: int, seconds: float, workers: int, checker: Checker, log):
    job = {"workload": name, "seed": seed, "trace": False}
    start = time.monotonic()
    t_n, t_1, t_tr, summaries, counters = [], [], [], [], []
    while not t_tr or (time.monotonic() - start < seconds and time.monotonic() - start < WALL_CAP_S):
        for threads, trace, times in ((workers, False, t_n), (1, False, t_1), (1, True, t_tr)):
            result = run_child(dict(job, threads=threads, trace=trace))
            times.append(result["pass_s"])
            checker(result["ops"])
            if trace:
                summaries.append(result["summary"])
                counters.append(result["counters"])
    log(f"{name}: {len(t_tr)} traced rounds; pass seconds at {workers} workers {t_n}, "
        f"at 1 worker {t_1}, traced {t_tr}")
    log(f"{name}: fail_share = {checker.failed}/{checker.attempted}")
    values = layer_metrics(summaries, counters, workers, t_1, t_n, t_tr)
    return {k: (v, layer_unit(k)) for k, v in values.items()}


def environment(seed: int) -> dict:
    src = sorted((ROOT / "src" / "kls").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in src)).hexdigest()
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest,
        "nproc": nproc(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, log, pool) -> tuple[dict, Checker]:
    checker = Checker(name, WORKLOADS[name].inputs(seed), pool)
    measure = traced if trace else untraced
    return measure(name, seed, seconds, nproc(), checker, log), checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kls" / "__init__.py").is_file():
        print(f"error: no kls sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    log("env " + json.dumps(environment(args.seed)))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    # SIGTERM unwinds like an exception, so the pool and any running pass are
    # stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # fork, not spawn: a spawn pool also starts multiprocessing's resource
    # tracker, a process that nothing waits for and that outlives this one.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(nproc(), mp_context=fork) as oracle_pool:
        results = [(name, *run(name, args.seed, args.seconds, bool(args.trace), log, oracle_pool))
                   for name in names]
    for name, values, checker in results:
        for problem in checker.problems:
            log(f"{name}: CHECK FAILED {problem}")
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{name}: metric {key} is {value}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        attempted += checker.attempted
        failed += checker.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

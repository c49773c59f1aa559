"""One pass of a workload in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/child.py '{"workload": ..., "seed": ..., "threads": ...,
"trace": false, "setup_only": false}'``.  ``setup_s`` runs from the first line
of this file to the end of the untimed set-up: importing ``kls`` and building
the pass's inputs.  A fresh interpreter means every module cache in ``kls``
starts empty, as it does for a command-line user.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest pool worker, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(job: dict) -> dict:
    import kls
    import kls.cli

    from perfbench.tracing import Tracer, instrument
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    cases = workload.inputs(job["seed"])
    setup_s = time.perf_counter() - T0
    if job.get("setup_only"):
        return {"setup_s": setup_s}
    tracer = Tracer() if job["trace"] else None
    with instrument(kls, tracer) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        ops = workload.run_pass(kls, cases, job["threads"])
        pass_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "pass_s": pass_s, "ops": ops, "rss_mb": _peak_rss_mb()}
    if tracer:
        result["summary"] = tracer.summary()
        result["counters"] = tracer.counters
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

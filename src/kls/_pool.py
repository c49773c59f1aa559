"""The one process-pool fan-out, used by klsum's eval_sum and scan.

Counting (vmvt) and the amplified bound (bounds) run in one process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, tasks: list, threads: int) -> list:
    """[fn(t) for t in tasks], in task order.

    Worker processes start only when threads > 1 and there is more than
    one task; otherwise everything runs in the calling process.
    """
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]

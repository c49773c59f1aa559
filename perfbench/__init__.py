"""Benchmark harness for ``kls``.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see NOTES.md for what each workload measures and why.
"""

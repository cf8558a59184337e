"""Benchmark harness for tauc: fixtures, reference checks and layer tracing.

Run it with ``python3 perfbench/run.py --workload day --seed 0 --seconds 20 --trace 0``
from the repository root; see ``perfbench/README.md``.
"""

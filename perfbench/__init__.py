"""Benchmark for anafor: workload builders, output checks and span tracing.

Run it from the root of a checkout with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and metrics.
"""

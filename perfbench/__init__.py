"""Benchmark for charp: seeded workloads, end-to-end timings and a
per-layer trace.  Run it with `python3 perfbench/run.py --workload <name>`."""

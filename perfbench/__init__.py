"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

See ``BENCHMARK.json`` at the repository root for the workloads and the
metrics, and :mod:`perfbench.bench` for how a run measures them.
"""

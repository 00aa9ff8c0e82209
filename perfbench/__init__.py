"""Paper-workload benchmark of the runtime resource manager.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; README.md in this
directory lists the workloads, the metrics and the output checks.
"""

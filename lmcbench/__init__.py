"""The LMC benchmark: seeded workloads, a timed runner and a per-layer tracer.

Run it from the repository root::

    python3 lmcbench/run.py --workload explore_opt --seed 1 --seconds 20 --trace 0

See ``lmcbench/README.md`` for the workloads, the metrics and the compare view.
"""

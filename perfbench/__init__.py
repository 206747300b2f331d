"""The repository benchmark: four paper-shaped workloads over the simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the entry point; README.md in this directory lists the
workloads, the metrics and the layer table.
"""

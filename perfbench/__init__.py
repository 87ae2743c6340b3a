"""The repository benchmark: four workloads over the paper's pipeline.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints one
JSON result as its last line; see ``perfbench/README.md``.
"""

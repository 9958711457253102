"""Repository benchmark: workloads, span recorder, output checks."""

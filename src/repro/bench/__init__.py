"""Experiment harness: build methods, run workloads, render tables."""

from repro.bench.harness import MethodRun, build_method, run_workload
from repro.bench.reporting import ResultsLog, format_table

__all__ = [
    "MethodRun",
    "build_method",
    "run_workload",
    "ResultsLog",
    "format_table",
]

"""Experiment harness: build methods, run workloads, drive load, render tables."""

from repro.bench.harness import MethodRun, build_method, run_workload
from repro.bench.reporting import ResultsLog, format_table
from repro.bench.serving import (
    AsyncRemoteClient,
    PhaseReport,
    SloPolicy,
    SloReport,
    check_slo,
    load_slo_policy,
    run_loadtest,
)

__all__ = [
    "AsyncRemoteClient",
    "MethodRun",
    "build_method",
    "run_workload",
    "ResultsLog",
    "format_table",
    "PhaseReport",
    "SloPolicy",
    "SloReport",
    "check_slo",
    "load_slo_policy",
    "run_loadtest",
]

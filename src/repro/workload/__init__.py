"""Query/update workloads and benchmark datasets (paper §VI-A)."""

from repro.workload.datasets import DATASET_SPECS, dataset_names, load_dataset
from repro.workload.queries import QueryWorkload, generate_workload
from repro.workload.traffic import (
    SCENARIOS,
    PhaseSpec,
    Scenario,
    TrafficEvent,
    TrafficMix,
    TrafficTrace,
    generate_traffic,
    get_scenario,
    replay_trace,
)
from repro.workload.updates import (
    GraphUpdate,
    UpdateWorkload,
    generate_update_workload,
    interleave,
)

__all__ = [
    "QueryWorkload",
    "generate_workload",
    "GraphUpdate",
    "UpdateWorkload",
    "generate_update_workload",
    "interleave",
    "load_dataset",
    "dataset_names",
    "DATASET_SPECS",
    "SCENARIOS",
    "PhaseSpec",
    "Scenario",
    "TrafficEvent",
    "TrafficMix",
    "TrafficTrace",
    "generate_traffic",
    "get_scenario",
    "replay_trace",
]

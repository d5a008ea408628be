"""Query/update workloads and benchmark datasets (paper §VI-A)."""

from repro.workload.datasets import DATASET_SPECS, dataset_names, load_dataset
from repro.workload.queries import QueryWorkload, generate_workload
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
]

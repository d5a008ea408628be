"""Smoke test of the benchmark itself: every workload, tiny, end to end.

Each workload runs untraced and traced at about 1/50 of its request
counts on a 300-node graph, against real server processes.  There are no
wall-clock assertions, so the test is core-count independent; it checks
that the instrument emits what ``BENCHMARK.json`` promises, that its
correctness controls fire, and that it leaves the tree alone.
"""

import dataclasses
import subprocess

import pytest

from perfbench.bench import run_workload
from perfbench.report import ROOT, load_spec, with_units
from perfbench.workloads import WORKLOADS

#: Pools, caches and push spacing shrunk with the graph; ratios kept
#: (steady-hyp's pool stays 4x its cache, the others' pools fit).
TINY = {
    "cold-ball": dict(),
    "hot-small": dict(pool=24, cache=64, warmup=30),
    "steady-hyp": dict(pool=32, cache=8, warmup=40, open_seconds=5.0),
    "update-mix": dict(pool=24, cache=64, warmup=30, push_every=3),
}


def _tree_state() -> "str | None":
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout: nothing to compare


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def test_benchmark_json_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric(name, spec):
    before = _tree_state()
    workload = dataclasses.replace(WORKLOADS[name], scale=300 / 28_867,
                                   **TINY[name])
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        record = with_units(
            run_workload(workload, seed=7, seconds=0.2, trace=trace,
                         setup_repetitions=1), spec)
        assert record["failed"] == 0, record["errors"]
        assert record["attempted"] >= 1
        assert record["tamper_tried"] > 0
        assert record["tamper_rejected"] == record["tamper_tried"]
        assert record["costs_agree"] and record["correct"]
        assert {n: m["unit"] for n, m in record["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[group]}
        values = {n: m["value"] for n, m in record["metrics"].items()}
        if not trace:
            # Server CPU is counted in 10 ms ticks, which a run this
            # small may not fill; every other user-visible number is > 0.
            assert values.pop("server_cpu_ms_per_query") >= 0
            assert all(value > 0 for value in values.values()), values
        elif name == "cold-ball":
            assert values["service.cache.hit_rate"] == 0
        elif name == "update-mix":
            assert values["service.cache.invalidations"] > 0
            assert values["api.updates.push_p50_ms"] > 0
    assert _tree_state() == before

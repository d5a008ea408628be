"""Numbers out: percentiles, the box fingerprint, result files, compare."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(record: dict, spec: dict) -> dict:
    """Attach units and keep exactly the metrics ``BENCHMARK.json`` names
    for the record's kind of run (end-to-end untraced, per-layer traced)."""
    named = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    values = record["metrics"]
    record["metrics"] = {m["name"]: {"value": float(values[m["name"]]),
                                     "unit": m["unit"]} for m in named}
    return record


def box_speed_ms() -> float:
    """Median time of a fixed pure-Python + SHA-1 loop, in ms.

    The reference box is a shared VM whose speed drifts by tens of
    percent over an hour; two results are only comparable when this
    reading, taken before and after each set of runs, is about the same.
    """
    def loop() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        digest = hashlib.sha1()
        for _ in range(10_000):
            digest.update(b"x" * 64)
        return (time.perf_counter() - started) * 1e3

    return statistics.median(loop() for _ in range(15))


def fingerprint(seed: int, seconds: float) -> dict:
    """What a result must carry to be comparable with another."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    if load1 > nproc / 2:
        print(f"perfbench: warning: 1-min load average {load1:.2f} is above "
              f"nproc/2 = {nproc / 2:g}; timings will be noisy",
              file=sys.stderr)
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": commit, "seed": seed, "seconds": seconds,
        "loadavg_1min_at_start": load1,
        "box_speed_ms_at_start": box_speed_ms(),
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _values(result: dict, workload: str, metric: str) -> "list[float]":
    return [run["metrics"][metric]["value"] for run in result["runs"]
            if run["workload"] == workload and metric in run["metrics"]]


def _spread(values: "list[float]") -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(a: dict, b: dict, spec: dict) -> "list[dict]":
    """Judge *b* against *a* per (end-to-end metric, workload).

    ``unresolved`` means one input's own run-to-run spread exceeds the
    metric's bound, so a difference of that size proves nothing.
    """
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        for workload in workloads:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma)
            worse = change if metric["better"] == "lower" else -change
            spread = max(_spread(va), _spread(vb))
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "worse"
            elif worse < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            rows.append({"metric": metric["name"], "workload": workload,
                         "unit": metric["unit"], "a": ma, "b": mb,
                         "change": change, "spread": spread,
                         "bound": metric["bound"], "verdict": verdict})
    return rows


def print_comparison(rows: "list[dict]", a: dict, b: dict) -> None:
    speeds = [fp.get(key) for fp in (a["fingerprint"], b["fingerprint"])
              for key in ("box_speed_ms_at_start", "box_speed_ms_at_end")]
    if all(speeds) and max(speeds) > 1.1 * min(speeds):
        print(f"warning: the box ran at different speeds (fixed loop "
              f"{min(speeds):.1f}..{max(speeds):.1f} ms); timing verdicts "
              f"below may be the box, not the code")
    for row in rows:
        print(f"{row['verdict']:<10} {row['workload']:<11} "
              f"{row['metric']:<24} {row['a']:>12.4f} -> {row['b']:>12.4f} "
              f"{row['unit']:<4} ({row['change']:+.1%}, spread "
              f"{row['spread']:.1%}, bound {row['bound']:.0%})")


def print_metrics(run: dict) -> None:
    """Every metric of one run by name, with its unit."""
    print(f"== {run['workload']} (seed {run['seed']}, trace {run['trace']}): "
          f"{run['attempted']} attempted, {run['failed']} failed, "
          f"correct={run['correct']}")
    for name, metric in run["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")

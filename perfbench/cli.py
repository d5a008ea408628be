"""Command line: one run (the driver's contract), all, compare, repeat.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
is what the benchmark driver calls: it prints, as the last line of its
standard output, one JSON object ``{correct, attempted, failed, metrics}``
with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) named in ``BENCHMARK.json``.

``python -m perfbench all|repeat|compare`` is for people: ``all`` runs the
four workloads untraced and traced and prints every metric by name;
``--out DIR`` additionally writes ``DIR/result.json`` (with the box
fingerprint) and ``DIR/spans-<workload>.json``.  Nothing is written
anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from perfbench.report import (
    box_speed_ms,
    compare,
    fingerprint,
    load_spec,
    print_comparison,
    print_metrics,
    with_units,
)


def run_one(workload: str, seed: int, seconds: float, trace: int,
            out: "str | None" = None) -> dict:
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    record = run_workload(WORKLOADS[workload], seed, seconds, bool(trace))
    spans = record.pop("spans", None)
    if out and spans is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"spans-{workload}.json"), "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": spans}, handle)
    return with_units(record, load_spec())


def run_set(seed: int, seconds: float, runs: int, traced: bool,
            out: "str | None") -> dict:
    """Every workload *runs* times untraced (seeds seed, seed+1, …) and,
    if asked, once traced; returns the result document."""
    spec = load_spec()
    result = {"fingerprint": fingerprint(seed, seconds), "runs": []}
    for workload in (w["name"] for w in spec["workloads"]):
        for offset in range(runs):
            result["runs"].append(run_one(workload, seed + offset, seconds, 0))
            print_metrics(result["runs"][-1])
        if traced:
            result["runs"].append(run_one(workload, seed, seconds, 1, out))
            print_metrics(result["runs"][-1])
    result["fingerprint"]["box_speed_ms_at_end"] = box_speed_ms()
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "result.json"), "w") as handle:
            json.dump(result, handle, indent=1)
    return result


def _all_correct(result: dict) -> bool:
    return all(run["correct"] for run in result["runs"])


def main(argv: "list[str] | None" = None) -> int:
    # Leave through the ``finally`` blocks when terminated too: they stop
    # the server process and clear the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2010)
        p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                       help="scales every request count; 10 s of timed "
                            "phases per run on the reference box at 10")
        p.add_argument("--out", help="directory for result.json and spans")

    run = sub.add_parser("run", help="one workload, the driver's contract")
    common(run)
    run.add_argument("--workload", required=True,
                     choices=[w["name"] for w in spec["workloads"]])
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for name in ("all", "repeat"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--runs", type=int, default=1 if name == "all" else 5,
                       help="untraced runs per workload (seeds seed, seed+1, …)")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "run":
        record = run_one(args.workload, args.seed, args.seconds, args.trace,
                         args.out)
        for error in record["errors"]:
            print(f"perfbench: {error}", file=sys.stderr)
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0  # the verdict is the "correct" field, not the exit code
    if args.command == "all":
        return 0 if _all_correct(run_set(args.seed, args.seconds, args.runs,
                                         True, args.out)) else 1
    if args.command == "repeat":
        first = run_set(args.seed, args.seconds, args.runs, False,
                        args.out and os.path.join(args.out, "a"))
        second = run_set(args.seed, args.seconds, args.runs, False,
                         args.out and os.path.join(args.out, "b"))
        rows = compare(first, second, spec)
        print_comparison(rows, first, second)
        agree = all(row["verdict"] == "same" for row in rows)
        return 0 if agree and _all_correct(first) and _all_correct(second) else 1
    if args.command == "compare":
        with open(args.a) as handle_a, open(args.b) as handle_b:
            a, b = json.load(handle_a), json.load(handle_b)
        print_comparison(compare(a, b, spec), a, b)
        return 0
    parser.print_help()
    return 2

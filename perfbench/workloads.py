"""The four workloads and the seeded request plans they expand to.

A plan is a pure function of ``(workload, seed, seconds, repetitions,
rates)``: the same arguments give the same frames in the same order, and
the server only ever sees those frames.  Request *counts* are fixed by
``seconds`` (so byte and count metrics repeat exactly for one seed); the
per-10-seconds counts below were sized on the 2-core reference box so
that one run's timed phases take about ``seconds`` seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api.envelope import QueryRequest, UpdatePushRequest, WireUpdate
from repro.graph.graph import UPDATE_WEIGHT, SpatialGraph
from repro.workload import (
    generate_update_workload,
    generate_workload,
    load_dataset,
)

from perfbench.loadgen import Sample

QUERY_RANGE = 2000.0
#: ``generate_workload`` keeps a pair when its distance misses the range
#: by at most this share.  0.25 (its default) halves the generator's
#: Dijkstra radius against 1.0, which is what fits pair generation into a
#: run, and keeps proof sizes closer together from seed to seed.
TOLERANCE = 0.25
ZIPF_EXPONENT = 1.1
#: The pooled workloads' pairs (and their popularity ranks) are the
#: deployment's popular routes: part of the workload, drawn once with this
#: seed.  ``--seed`` drives what varies from day to day — the order of the
#: requests, the arrival times, the re-weighted edges, the RSA key.  A
#: Zipf(1.1) head is a handful of pairs (the first carries a fifth of the
#: traffic), so a pool redrawn per seed moved proof bytes per query, and
#: with them every timing, by 2-11 % from seed to seed (now 0.1-2 %).
POOL_SEED = 2010
#: Open-loop arrival rates (requests/s).  End-to-end metrics are taken
#: at ``E2E_RATE``; the others only feed the traced run's driver checks.
RATES = (40, 80, 120)
E2E_RATE = 80
#: Latency limit of the open-loop workload, from due time to reply.
SLO_MS = 50.0
REPETITIONS = 5


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one built method."""

    name: str
    why: str
    method: str
    build: dict
    scale: float          # of the DE stand-in (1/4 -> 7,108 nodes)
    pool: int             # distinct pairs drawn Zipf-wise; 0 = every pair unique
    cache: int            # server proof-cache capacity
    warmup: int           # untimed requests that fill the cache first
    latency: int          # requests per repetition per 10 s, C = 1, verified inline
    capacity: int         # requests per repetition per 10 s, C = 2, verified afterwards
    open_seconds: float = 0.0   # open-loop seconds per repetition per 10 s
    push_every: int = 0   # one single-edge PUSH_UPDATES after this many queries

    def graph(self) -> SpatialGraph:
        return load_dataset("DE", scale=self.scale)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cold-ball",
        why="DIJ, unique pairs, 0% cache hits: ~65 KB proofs, so search, "
            "Merkle assembly, encoding, big writes and the client's "
            "re-search do the work and the cache and framing almost none",
        method="DIJ", build={}, scale=1 / 4, pool=0, cache=1024, warmup=0,
        latency=60, capacity=130),
    Workload(
        name="hot-small",
        why="FULL, Zipf(1.1) over 256 pairs that fit the cache (>=95% "
            "hits): ~3 KB proofs, so cache, dispatcher, framing, HTTP "
            "parsing and socket hops are the bulk of the verdict",
        method="FULL", build={}, scale=1 / 16, pool=256, cache=1024, warmup=300,
        latency=600, capacity=2000),
    Workload(
        name="steady-hyp",
        why="HYP, Zipf(1.1) over a pool 4x the cache (hit/miss/eviction "
            "mix), open loop at a fixed Poisson rate: the only workload "
            "where a queue can build, so frontend queueing and cache "
            "sizing show here",
        method="HYP", build={"num_cells": 100}, scale=1 / 4, pool=512,
        cache=128, warmup=300, latency=50, capacity=400, open_seconds=1.0),
    Workload(
        name="update-mix",
        why="LDM, Zipf(1.1) over 256 cached pairs with a single-edge "
            "re-weight pushed every 100 queries: each push retires the "
            "cache and re-signs, so writes beside reads show here",
        method="LDM", build={"c": 100, "bits": 12, "xi": 50}, scale=1 / 4,
        pool=256, cache=1024, warmup=300, latency=150, capacity=500,
        push_every=100),
)}


@dataclass
class Repetition:
    """The disjoint request slices of one repetition."""

    latency: "list[Sample]"
    capacity: "list[Sample]"
    open: "dict[int, list[Sample]]" = field(default_factory=dict)


@dataclass
class Plan:
    warmup: "list[Sample]"
    repetitions: "list[Repetition]"
    #: Re-weights in push order (the benchmark replays them on its own
    #: copy of the graph to cross-check path costs).
    updates: list

    def timed(self) -> "list[Sample]":
        """Every sample of every timed phase, in run order."""
        out: "list[Sample]" = []
        for rep in self.repetitions:
            out += rep.latency + rep.capacity
            for samples in rep.open.values():
                out += samples
        return out


def distinct_pairs(graph: SpatialGraph, count: int,
                   seed: int) -> "list[tuple[int, int]]":
    """*count* different ``(source, target)`` pairs at the query range."""
    pairs: "dict[tuple[int, int], None]" = {}
    for batch in range(16):
        need = count - len(pairs)
        if need <= 0:
            return list(pairs)[:count]
        drawn = generate_workload(graph, QUERY_RANGE, need + need // 8 + 8,
                                  seed=seed * 1009 + batch,
                                  tolerance=TOLERANCE)
        pairs.update(dict.fromkeys(drawn.queries))
    raise ValueError(f"graph yields fewer than {count} distinct pairs")


def _query(pair: "tuple[int, int]") -> Sample:
    return Sample(QueryRequest(*pair).to_frame(), pair[0], pair[1])


def _with_pushes(queries: "list[Sample]", every: int, updates) -> "list[Sample]":
    """Insert one single-edge push after each *every* queries."""
    if not every:
        return queries
    out: "list[Sample]" = []
    for index, sample in enumerate(queries, 1):
        out.append(sample)
        if index % every == 0:
            update = next(updates)
            wire = WireUpdate(update.kind, update.u, update.v, update.weight)
            out.append(Sample(UpdatePushRequest((wire,)).to_frame(), push=True))
    return out


def build_plan(workload: Workload, graph: SpatialGraph, seed: int,
               seconds: float, *, repetitions: int = REPETITIONS,
               rates: "tuple[int, ...]" = (E2E_RATE,)) -> Plan:
    """Expand *workload* into frames; see the module docstring."""
    rng = random.Random(seed)
    scale = seconds / 10.0
    latency = max(2, round(workload.latency * scale))
    capacity = max(4, round(workload.capacity * scale))
    open_seconds = workload.open_seconds * scale
    arrivals = {rate: max(4, round(rate * open_seconds))
                for rate in rates} if open_seconds else {}
    per_rep = latency + capacity + sum(arrivals.values())
    total = workload.warmup + repetitions * per_rep

    if workload.pool:
        pool = distinct_pairs(graph, workload.pool, POOL_SEED)
        weights = [1.0 / rank ** ZIPF_EXPONENT
                   for rank in range(1, len(pool) + 1)]
        stream = iter(rng.choices(pool, weights, k=total))
    else:
        stream = iter(distinct_pairs(graph, total, seed))

    pushes = 0
    if workload.push_every:
        pushes = repetitions * (latency // workload.push_every
                                + capacity // workload.push_every)
    updates = list(generate_update_workload(
        graph, pushes, seed=seed, kinds=(UPDATE_WEIGHT,))) if pushes else []
    update_iter = iter(updates)

    def take(count: int) -> "list[Sample]":
        return [_query(next(stream)) for _ in range(count)]

    warmup = take(workload.warmup)
    reps = []
    for _ in range(repetitions):
        rep = Repetition(
            _with_pushes(take(latency), workload.push_every, update_iter),
            _with_pushes(take(capacity), workload.push_every, update_iter))
        for rate, count in arrivals.items():
            # A Poisson process conditioned on its count: sorted uniform
            # arrival times, so every seed offers exactly the same load.
            dues = sorted(rng.uniform(0.0, count / rate) for _ in range(count))
            rep.open[rate] = take(count)
            for sample, due in zip(rep.open[rate], dues):
                sample.due = due
        reps.append(rep)
    return Plan(warmup, reps, updates)

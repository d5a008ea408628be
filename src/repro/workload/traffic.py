"""Production-realism traffic generation: the shape of real load.

The query workloads (:mod:`repro.workload.queries`) draw uniform pairs
— fine for proof-size figures, useless for serving questions: a uniform
replay makes every cache hit rate an artifact of the replay count, and
a fixed-rate loop says nothing about tail latency under bursts.  This
module generates *traces* with the statistical shape of production
traffic, fully seeded so one seed reproduces one byte-identical
request sequence:

* **Zipf-skewed origins/destinations** — node popularity follows a
  power law over a seeded ranking, and queries draw from a bounded
  pool of popular pairs, so the ProofCache hit rate measures locality
  the way a real service would see it;
* **bursty open-loop arrivals** — a Poisson base rate modulated by
  on/off burst periods (a Markov-modulated Poisson process), giving
  each event an arrival timestamp the load driver paces itself by
  rather than waiting for responses (open loop is what exposes queue
  buildup);
* **a configurable frame mix** — QUERY, BATCH (a multi-query frame),
  UPDATE (an owner re-weight push) and GARBAGE (adversarial bytes:
  truncated / bit-flipped / wrong-version / random-noise / replayed
  frames), so one trace exercises the happy path, the write path and
  the error taxonomy together;
* **phased scenarios** — warmup → steady → burst → update-storm and
  friends, each phase with its own rate, mix and loop mode, registered
  by name (``SCENARIOS``) for the CLI and the SLO harness.

Everything here is generation only: no sockets, no servers.  The one
load driver, :func:`repro.bench.serving.run_loadtest`, executes traces;
a fixed-query replay becomes a trace too (:func:`replay_trace`).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field, replace

from repro.api.envelope import QueryRequest, decode_frame
from repro.errors import WorkloadError
from repro.graph.graph import SpatialGraph
from repro.workload.updates import (
    UPDATE_WEIGHT,
    GraphUpdate,
    generate_update_workload,
)

#: Event kinds a trace can contain.
EVENT_QUERY = "query"
EVENT_BATCH = "batch"
EVENT_UPDATE = "update"
EVENT_GARBAGE = "garbage"

EVENT_KINDS = (EVENT_QUERY, EVENT_BATCH, EVENT_UPDATE, EVENT_GARBAGE)

#: Garbage frame flavours and what a correct server may answer:
#: ``error`` — must come back as a typed taxonomy error frame;
#: ``any``   — a typed error *or* a well-formed reply (a bit flip can
#:             land in the query payload and still decode);
#: ``ok``    — must be answered like any well-formed request (replays
#:             of valid frames are legitimate traffic to an untrusted
#:             provider).
GARBAGE_NOISE = "noise"
GARBAGE_TRUNCATED = "truncated"
GARBAGE_BITFLIP = "bitflip"
GARBAGE_BAD_VERSION = "bad-version"
GARBAGE_REPLAY = "replay"

GARBAGE_KINDS = (GARBAGE_NOISE, GARBAGE_TRUNCATED, GARBAGE_BITFLIP,
                 GARBAGE_BAD_VERSION, GARBAGE_REPLAY)

GARBAGE_EXPECTATION = {
    GARBAGE_NOISE: "error",
    GARBAGE_TRUNCATED: "error",
    GARBAGE_BITFLIP: "any",
    GARBAGE_BAD_VERSION: "error",
    GARBAGE_REPLAY: "ok",
}


@dataclass(frozen=True)
class TrafficMix:
    """Relative frame-kind weights for one phase (need not sum to 1)."""

    query: float = 1.0
    batch: float = 0.0
    update: float = 0.0
    garbage: float = 0.0
    #: Inclusive bounds on the queries packed into one BATCH frame.
    batch_size: tuple[int, int] = (2, 5)

    def __post_init__(self) -> None:
        weights = (self.query, self.batch, self.update, self.garbage)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise WorkloadError(f"invalid traffic mix weights {weights}")
        lo, hi = self.batch_size
        if not 1 <= lo <= hi:
            raise WorkloadError(f"invalid batch_size bounds {self.batch_size}")

    @property
    def weights(self) -> tuple[float, float, float, float]:
        """Weights aligned with :data:`EVENT_KINDS`."""
        return (self.query, self.batch, self.update, self.garbage)


@dataclass(frozen=True)
class PhaseSpec:
    """One soak phase: how many events, how fast, and their mix.

    ``rate`` is the open-loop offered rate in events/second (arrival
    timestamps are spaced accordingly); ``closed_loop`` phases ignore
    the timestamps and fire back-to-back — that is the saturation
    probe.  ``burst_factor > 1`` multiplies the rate during "on"
    periods whose lengths are exponential with means ``burst_on`` /
    ``burst_off`` seconds (the off-mean spaces the bursts).
    """

    name: str
    events: int
    rate: float = 50.0
    mix: TrafficMix = field(default_factory=TrafficMix)
    closed_loop: bool = False
    burst_factor: float = 1.0
    burst_on: float = 0.0
    burst_off: float = 0.0

    def __post_init__(self) -> None:
        if self.events < 1:
            raise WorkloadError(f"phase {self.name!r}: events must be >= 1")
        if self.rate <= 0:
            raise WorkloadError(f"phase {self.name!r}: rate must be positive")
        if self.burst_factor < 1.0:
            raise WorkloadError(
                f"phase {self.name!r}: burst_factor must be >= 1"
            )


@dataclass(frozen=True)
class Scenario:
    """A named sequence of phases with one Zipf skew parameter.

    ``zipf_s`` is the popularity exponent (1.0 is the classic Zipf
    law; larger skews harder) and ``pool_size`` bounds the popular
    query-pair pool the Zipf ranks range over — together they are what
    makes cache hit rates *mean* something.
    """

    name: str
    phases: tuple[PhaseSpec, ...]
    zipf_s: float = 1.1
    pool_size: int = 64

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"scenario {self.name!r} has no phases")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise WorkloadError(
                f"scenario {self.name!r}: phase names must be unique, "
                f"got {names}"
            )
        if self.zipf_s <= 0 or self.pool_size < 1:
            raise WorkloadError(
                f"scenario {self.name!r}: bad zipf_s/pool_size "
                f"({self.zipf_s}, {self.pool_size})"
            )

    @property
    def total_events(self) -> int:
        """Events across all phases."""
        return sum(p.events for p in self.phases)

    def scaled(self, events_scale: float) -> "Scenario":
        """A copy with every phase's event count scaled (min 1 each).

        The knob CI and tests use to run the same scenario *shape* at a
        smoke-test size.
        """
        if events_scale <= 0:
            raise WorkloadError(f"events_scale must be positive, got {events_scale}")
        return replace(self, phases=tuple(
            replace(p, events=max(1, round(p.events * events_scale)))
            for p in self.phases
        ))


#: The standard soak: warm the cache gently, hold a steady mixed rate,
#: slam a closed-loop burst (the saturation probe), then an
#: update-storm where owner pushes dominate.  Garbage rides along in
#: steady and storm phases so the error taxonomy is exercised
#: mid-traffic, not in a lab.
STEADY_BURST = Scenario(
    name="steady-burst",
    phases=(
        PhaseSpec("warmup", events=40, rate=80.0),
        PhaseSpec("steady", events=120, rate=120.0,
                  mix=TrafficMix(query=0.82, batch=0.10, garbage=0.08),
                  burst_factor=4.0, burst_on=0.1, burst_off=0.4),
        PhaseSpec("burst", events=120, rate=400.0, closed_loop=True,
                  mix=TrafficMix(query=0.9, batch=0.1)),
        PhaseSpec("update-storm", events=60, rate=100.0,
                  mix=TrafficMix(query=0.72, batch=0.08, update=0.12,
                                 garbage=0.08)),
    ),
)

#: Read-only steady state: the baseline SLO run.
STEADY = Scenario(
    name="steady",
    phases=(
        PhaseSpec("warmup", events=30, rate=80.0),
        PhaseSpec("steady", events=120, rate=120.0,
                  mix=TrafficMix(query=0.9, batch=0.1)),
    ),
)

#: Hostile mix: a third of the traffic is garbage, replayed or
#: corrupted, with owner pushes moving the version underneath it.
ADVERSARIAL_SOAK = Scenario(
    name="adversarial-soak",
    phases=(
        PhaseSpec("warmup", events=30, rate=100.0),
        PhaseSpec("hostile", events=150, rate=150.0,
                  mix=TrafficMix(query=0.52, batch=0.08, update=0.06,
                                 garbage=0.34),
                  burst_factor=3.0, burst_on=0.1, burst_off=0.3),
    ),
)

#: Registry the CLI's ``loadtest --scenario`` resolves names against.
SCENARIOS = {s.name: s for s in (STEADY_BURST, STEADY, ADVERSARIAL_SOAK)}


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}"
        ) from None


@dataclass(frozen=True)
class TrafficEvent:
    """One generated request with its open-loop arrival time.

    ``at`` is seconds since the phase start.  Exactly one payload field
    is meaningful per kind: ``queries`` for QUERY (one pair) and BATCH
    (several), ``update`` for UPDATE, ``frame``/``garbage_kind``/
    ``expect`` for GARBAGE.
    """

    at: float
    kind: str
    queries: tuple[tuple[int, int], ...] = ()
    update: "GraphUpdate | None" = None
    frame: "bytes | None" = None
    garbage_kind: str = ""
    expect: str = ""


@dataclass(frozen=True)
class TrafficTrace:
    """A fully generated scenario: per-phase event lists, seeded.

    The determinism contract — the acceptance gate of the whole
    simulator — is that ``generate_traffic(graph, scenario, seed=s)``
    is byte-identical across calls and processes for equal inputs.
    """

    scenario: str
    seed: int
    phases: tuple[tuple[PhaseSpec, tuple[TrafficEvent, ...]], ...]

    @property
    def total_events(self) -> int:
        """Events across all phases."""
        return sum(len(events) for _, events in self.phases)

    def events_of(self, phase_name: str) -> tuple[TrafficEvent, ...]:
        """The events of one phase by name."""
        for phase, events in self.phases:
            if phase.name == phase_name:
                return events
        raise WorkloadError(f"no phase {phase_name!r} in this trace")

    def digest(self) -> str:
        """A short hex fingerprint of the full request sequence.

        Two traces with equal digests carry identical events in
        identical order — the witness the CLI prints and the
        determinism tests compare across processes.
        """
        import hashlib

        h = hashlib.sha256()
        for phase, events in self.phases:
            h.update(phase.name.encode())
            for e in events:
                h.update(repr((round(e.at, 9), e.kind, e.queries, e.update,
                               e.frame, e.garbage_kind)).encode())
        return h.hexdigest()[:16]


class ZipfSampler:
    """Zipf-distributed draws over a seeded ranking of *items*.

    Rank ``r`` (0-based) is drawn with probability proportional to
    ``1 / (r + 1) ** s``; which item holds which rank is a seeded
    shuffle, so two samplers with different seeds disagree about what
    is popular — exactly like two regions of a real user base.
    """

    def __init__(self, items, *, s: float = 1.1, seed: object = 0) -> None:
        ranked = list(items)
        if not ranked:
            raise WorkloadError("cannot sample from an empty item list")
        random.Random(str(seed)).shuffle(ranked)
        self._ranked = ranked
        total = 0.0
        cumulative = []
        for rank in range(len(ranked)):
            total += 1.0 / float(rank + 1) ** s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def draw(self, rng: random.Random):
        """One Zipf-distributed item."""
        position = bisect.bisect_left(self._cumulative,
                                      rng.random() * self._total)
        return self._ranked[min(position, len(self._ranked) - 1)]


def _arrival_times(rng: random.Random, phase: PhaseSpec) -> "list[float]":
    """Open-loop arrival timestamps for one phase (MMPP)."""
    times: list[float] = []
    now = 0.0
    bursting = False
    toggle_at = (now + rng.expovariate(1.0 / phase.burst_off)
                 if phase.burst_factor > 1.0 and phase.burst_off > 0
                 else float("inf"))
    for _ in range(phase.events):
        rate = phase.rate * (phase.burst_factor if bursting else 1.0)
        now += rng.expovariate(rate)
        if now >= toggle_at:
            bursting = not bursting
            mean = phase.burst_on if bursting else phase.burst_off
            toggle_at = now + rng.expovariate(1.0 / mean) if mean > 0 \
                else float("inf")
        times.append(now)
    return times


class TrafficGenerator:
    """Seeded per-graph generator behind :func:`generate_traffic`."""

    def __init__(self, graph: SpatialGraph, *, seed: int = 2010,
                 zipf_s: float = 1.1, pool_size: int = 64) -> None:
        ids = sorted(graph.node_ids())
        if len(ids) < 2 or graph.num_edges == 0:
            raise WorkloadError("traffic needs a graph with >= 2 nodes and edges")
        self.graph = graph
        self.seed = seed
        origins = ZipfSampler(ids, s=zipf_s, seed=f"{seed}:origins")
        dests = ZipfSampler(ids, s=zipf_s, seed=f"{seed}:dests")
        # The popular-pair pool: Zipf-ranked (origin, destination) draws
        # deduplicated into at most ``pool_size`` distinct pairs.  Query
        # events then Zipf-select *within* the pool, so a handful of hot
        # pairs dominates — the locality the proof cache exists for.
        pool_rng = random.Random(f"{seed}:pool")
        pool: list[tuple[int, int]] = []
        seen = set()
        attempts = 0
        while len(pool) < pool_size and attempts < 50 * pool_size:
            attempts += 1
            vs, vt = origins.draw(pool_rng), dests.draw(pool_rng)
            if vs != vt and (vs, vt) not in seen:
                seen.add((vs, vt))
                pool.append((vs, vt))
        if not pool:
            raise WorkloadError("could not assemble a query-pair pool")
        self._pool = pool
        self._pool_sampler = ZipfSampler(range(len(pool)), s=zipf_s,
                                         seed=f"{seed}:pool-ranks")

    # ------------------------------------------------------------------
    def pair(self, rng: random.Random) -> tuple[int, int]:
        """One Zipf-popular query pair."""
        return self._pool[self._pool_sampler.draw(rng)]

    def _garbage(self, rng: random.Random,
                 recent_frames: "list[bytes]") -> TrafficEvent:
        kind = GARBAGE_KINDS[rng.randrange(len(GARBAGE_KINDS))]
        vs, vt = self.pair(rng)
        base = QueryRequest(vs, vt).to_frame()
        queries: tuple[tuple[int, int], ...] = ()
        if kind == GARBAGE_NOISE:
            frame = rng.randbytes(rng.randint(4, 64))
        elif kind == GARBAGE_TRUNCATED:
            frame = base[:rng.randrange(1, len(base))]
        elif kind == GARBAGE_BITFLIP:
            flipped = bytearray(base)
            position = rng.randrange(len(flipped))
            flipped[position] ^= 1 << rng.randrange(8)
            frame = bytes(flipped)
        elif kind == GARBAGE_BAD_VERSION:
            stale = bytearray(base)
            stale[4] = 0x63  # varint 99: a protocol version nobody speaks
            frame = bytes(stale)
        else:  # GARBAGE_REPLAY: an earlier valid frame, byte for byte
            frame = recent_frames[rng.randrange(len(recent_frames))] \
                if recent_frames else base
            replayed = QueryRequest.decode(decode_frame(frame).payload)
            queries = ((replayed.source, replayed.target),)
        return TrafficEvent(0.0, EVENT_GARBAGE, queries=queries, frame=frame,
                            garbage_kind=kind,
                            expect=GARBAGE_EXPECTATION[kind])

    def phase_events(self, phase: PhaseSpec, *, phase_index: int,
                     updates: "list[GraphUpdate]") -> tuple[TrafficEvent, ...]:
        """Generate one phase's events; consumes from *updates*."""
        rng = random.Random(f"{self.seed}:{phase_index}:{phase.name}")
        times = _arrival_times(rng, phase)
        events: list[TrafficEvent] = []
        recent_frames: list[bytes] = []
        for at in times:
            kind = rng.choices(EVENT_KINDS, weights=phase.mix.weights)[0]
            if kind == EVENT_UPDATE and not updates:
                kind = EVENT_QUERY  # stream exhausted: degrade to a read
            if kind == EVENT_QUERY:
                pair = self.pair(rng)
                events.append(TrafficEvent(at, EVENT_QUERY, queries=(pair,)))
                recent_frames.append(QueryRequest(*pair).to_frame())
            elif kind == EVENT_BATCH:
                count = rng.randint(*phase.mix.batch_size)
                pairs = tuple(self.pair(rng) for _ in range(count))
                events.append(TrafficEvent(at, EVENT_BATCH, queries=pairs))
            elif kind == EVENT_UPDATE:
                events.append(TrafficEvent(at, EVENT_UPDATE,
                                           update=updates.pop(0)))
            else:
                events.append(replace(self._garbage(rng, recent_frames), at=at))
            if len(recent_frames) > 32:
                recent_frames.pop(0)
        if (phase.mix.update > 0 and updates
                and not any(e.kind == EVENT_UPDATE for e in events)):
            # A phase that *asks* for updates must carry at least one —
            # the mid-soak version fast-forward is an acceptance gate,
            # not something left to weighted-draw luck.  Deterministic:
            # the middle event becomes an update at its own timestamp.
            middle = len(events) // 2
            events[middle] = TrafficEvent(events[middle].at, EVENT_UPDATE,
                                          update=updates.pop(0))
        return tuple(events)


def generate_traffic(graph: SpatialGraph, scenario: Scenario, *,
                     seed: int = 2010) -> TrafficTrace:
    """Generate the full deterministic trace for *scenario*.

    Update events draw from one weight-only owner stream generated up
    front against a scratch copy of the graph (re-weights stay valid in
    any interleaving, unlike removals), shared across phases in order.
    Same ``(graph, scenario, seed)`` ⇒ identical trace, always.
    """
    generator = TrafficGenerator(graph, seed=seed, zipf_s=scenario.zipf_s,
                                 pool_size=scenario.pool_size)
    # Upper-bound the update stream by the events that could become
    # updates; phases consume sequentially.
    update_budget = sum(
        phase.events for phase in scenario.phases if phase.mix.update > 0
    )
    updates: list[GraphUpdate] = []
    if update_budget:
        updates = list(generate_update_workload(
            graph, update_budget, seed=seed, kinds=(UPDATE_WEIGHT,),
        ))
    phases = []
    for index, phase in enumerate(scenario.phases):
        phases.append((phase, generator.phase_events(
            phase, phase_index=index, updates=updates)))
    return TrafficTrace(scenario=scenario.name, seed=seed,
                        phases=tuple(phases))


def replay_trace(graph: SpatialGraph, queries, *, passes: int = 2,
                 updates_per_pass: int = 0, batch_size: int = 0,
                 seed: int = 2010) -> TrafficTrace:
    """A fixed-query replay as a trace: one closed-loop phase per pass.

    Phases are named ``cold``, ``warm1``, …; each sends *queries* in
    order, as QUERY events or, with ``batch_size > 0``, as BATCH events
    of that many queries.  ``updates_per_pass`` owner re-weights are
    drawn up front the way :func:`generate_traffic` draws them and
    dealt out evenly: each pass splits into that many + 1 equal query
    chunks with one update between consecutive chunks.
    """
    queries = [(int(s), int(t)) for s, t in queries]
    if passes < 2:
        raise WorkloadError(f"need a cold and a warm pass; got passes={passes}")
    if not queries:
        raise WorkloadError("empty load-test workload")
    if updates_per_pass < 0 or batch_size < 0:
        raise WorkloadError(
            f"updates_per_pass and batch_size must be >= 0, got "
            f"{updates_per_pass} and {batch_size}")
    updates: list[GraphUpdate] = []
    if updates_per_pass:
        updates = list(generate_update_workload(
            graph, passes * updates_per_pass, seed=seed,
            kinds=(UPDATE_WEIGHT,)))
    step = -(-len(queries) // (updates_per_pass + 1))
    kind, width = (EVENT_BATCH, batch_size) if batch_size else (EVENT_QUERY, 1)
    phases = []
    for index in range(passes):
        pending = updates[index * updates_per_pass:
                          (index + 1) * updates_per_pass]
        events: list[TrafficEvent] = []
        for start in range(0, len(queries), step):
            chunk = queries[start:start + step]
            events.extend(
                TrafficEvent(0.0, kind, queries=tuple(chunk[i:i + width]))
                for i in range(0, len(chunk), width))
            if pending:
                events.append(TrafficEvent(0.0, EVENT_UPDATE,
                                           update=pending.pop(0)))
        # Fewer chunks than updates (tiny workloads): the rest close the pass.
        events.extend(TrafficEvent(0.0, EVENT_UPDATE, update=update)
                      for update in pending)
        name = "cold" if index == 0 else f"warm{index}"
        phases.append((PhaseSpec(name, events=len(events), closed_loop=True),
                       tuple(events)))
    return TrafficTrace(scenario="replay", seed=seed, phases=tuple(phases))

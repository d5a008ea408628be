"""Load-driver tests: one real soak, replays, and the gate logic.

The module-scoped soak runs the full steady-burst shape (scaled down,
accelerated clock) through a live HTTP stack so one run backs every
structural assertion: phased latency tables, the closed-loop
saturation probe, cache locality, mid-soak update pushes with the
freshness floor, and per-phase server-side windows.  The replay tests
hold a fixed-query trace with update barriers to its per-pass counts,
and the policy/gate tests below are pure logic on the soak's report.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.serving import (
    PhaseReport,
    SloPolicy,
    SloReport,
    check_slo,
    fetch_http_metrics,
    load_slo_policy,
    run_loadtest,
)
from repro.core.framework import DataOwner
from repro.crypto.signer import NullSigner
from repro.errors import ServiceError, WorkloadError
from repro.workload.queries import generate_workload
from repro.workload.traffic import generate_traffic, get_scenario, replay_trace
from repro.workload.updates import UPDATE_WEIGHT, generate_update_workload

SEED = 17
SCALE = 0.3


@pytest.fixture(scope="module")
def signer():
    return NullSigner()


@pytest.fixture(scope="module")
def soak(road300, signer):
    graph = road300.copy()
    method = DataOwner(graph, signer=signer).publish("DIJ")
    trace = generate_traffic(graph, get_scenario("steady-burst").scaled(SCALE),
                             seed=SEED)
    return run_loadtest(trace, signer.verify, method=method,
                        update_signer=signer, clients=2, time_scale=0.05)


class TestSoakReport:
    def test_all_phases_reported_in_order(self, soak):
        assert [p.name for p in soak.phases] == \
            ["warmup", "steady", "burst", "update-storm"]
        assert soak.scenario == "steady-burst"
        assert soak.method == "DIJ"
        assert soak.seed == SEED

    def test_trace_digest_matches_regeneration(self, soak, road300):
        scenario = get_scenario("steady-burst").scaled(SCALE)
        assert soak.trace_digest == \
            generate_traffic(road300, scenario, seed=SEED).digest()

    def test_latency_percentiles_are_ordered(self, soak):
        for phase in soak.phases:
            assert phase.requests > 0
            assert 0.0 < phase.p50_ms <= phase.p95_ms <= phase.p99_ms
            assert phase.seconds > 0
            assert phase.qps > 0

    def test_saturation_comes_from_the_closed_loop_phase(self, soak):
        (burst,) = [p for p in soak.phases if p.mode == "closed"]
        assert burst.name == "burst"
        assert soak.saturation_qps == pytest.approx(burst.qps)

    def test_bytes_and_locality_are_measured(self, soak):
        for phase in soak.phases:
            assert phase.bytes_per_query > 0
        best = max(p.hit_rate for p in soak.phases)
        assert best > 0.2, "Zipf pool produced no cache locality"

    def test_everything_verified_including_update_pushes(self, soak):
        assert soak.all_verified, [p.failures for p in soak.phases]
        assert soak.verification_failures == 0
        assert soak.updates_pushed >= 1, "no mid-soak update push happened"
        assert soak.final_version > 0
        assert soak.freshness_failures == ()

    def test_server_windows_ride_along(self, soak):
        for phase in soak.phases:
            assert phase.server_window is not None
            assert phase.server_window["phase"] == phase.name
        storm = next(p for p in soak.phases if p.name == "update-storm")
        assert storm.server_window["updates"] == soak.updates_pushed

    def test_report_is_json_serializable(self, soak):
        record = json.loads(json.dumps(soak.as_dict()))
        assert record["scenario"] == "steady-burst"
        assert len(record["phases"]) == 4
        assert record["saturation_qps"] == pytest.approx(soak.saturation_qps)

    def test_table_rows_match_headers(self, soak):
        rows = soak.table_rows()
        assert [row[0] for row in rows] == [p.name for p in soak.phases]
        assert all(len(row) == len(SloReport.TABLE_HEADERS) for row in rows)

    def test_overhead_ratio_is_wire_over_proof_bytes(self, soak):
        wire = sum(p.wire_bytes for p in soak.phases)
        proof = sum(p.proof_bytes for p in soak.phases)
        assert proof > 0
        assert soak.overhead_ratio == pytest.approx(wire / proof)
        assert soak.as_dict()["overhead_ratio"] == soak.overhead_ratio


def _report(**phase_fields) -> SloReport:
    """A one-phase report with clean counters unless overridden."""
    fields = dict(name="steady", mode="closed", requests=1, queries=1,
                  seconds=1.0, p50_ms=1.0, p95_ms=1.0, p99_ms=1.0,
                  wire_bytes=0, proof_bytes=0, verified=1, cache_hits=0,
                  failures=())
    fields.update(phase_fields)
    return SloReport(scenario="s", method="DIJ", seed=1, trace_digest="x",
                     clients=1, url="local", phases=(PhaseReport(**fields),))


class TestSloGate:
    def test_sane_policy_passes(self, soak):
        policy = SloPolicy(max_p99_ms=60_000.0, min_saturation_qps=0.1,
                           min_hit_rate=0.05)
        assert check_slo(soak, policy) == []

    def test_each_objective_can_fail(self, soak):
        assert any("p99" in v for v in check_slo(
            soak, SloPolicy(max_p99_ms=0.000001)))
        assert any("saturation" in v for v in check_slo(
            soak, SloPolicy(min_saturation_qps=10_000_000.0)))
        assert any("hit rate" in v for v in check_slo(
            soak, SloPolicy(min_hit_rate=1.0)))

    def test_warmup_p99_is_exempt(self):
        warm = PhaseReport(name="warmup", mode="open", requests=1, queries=1,
                           seconds=1.0, p50_ms=500.0, p95_ms=500.0,
                           p99_ms=500.0, wire_bytes=10, proof_bytes=10,
                           verified=1, cache_hits=0, failures=(),
                           garbage_sent=0, garbage_unexpected=0,
                           garbage_untyped=0, updates_pushed=0)
        report = SloReport(scenario="s", method="DIJ", seed=1,
                           trace_digest="x", clients=1, url="local", phases=(warm,), server_metrics=None,
                           worker_requests=(), final_version=0,
                           freshness_failures=())
        assert check_slo(report, SloPolicy(max_p99_ms=1.0)) == []

    def test_correctness_counters_have_zero_tolerance(self):
        assert check_slo(_report(), SloPolicy()) == []
        failed = _report(verified=0, failures=("(1,2): bad-proof x",))
        assert any("verification failures" in v
                   for v in check_slo(failed, SloPolicy()))
        assert check_slo(failed,
                         SloPolicy(max_verification_failures=1)) == []
        untyped = _report(garbage_sent=1, garbage_untyped=1)
        assert untyped.untyped_garbage == 1
        assert any("untyped" in v for v in check_slo(untyped, SloPolicy()))

    def test_policy_as_dict_round_trips(self, tmp_path):
        policy = SloPolicy(max_p99_ms=80.0, min_saturation_qps=5.0,
                           min_hit_rate=0.25, max_verification_failures=2,
                           max_untyped_garbage=1)
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(policy.as_dict()))
        assert load_slo_policy(str(path)) == policy

    def test_policy_file_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "max_p99_ms": 250.0, "min_saturation_qps": 40.0,
            "min_hit_rate": 0.3, "future_knob_ignored": True,
        }))
        policy = load_slo_policy(str(path))
        assert policy.max_p99_ms == 250.0
        assert policy.min_saturation_qps == 40.0
        assert policy.min_hit_rate == 0.3
        assert policy.max_verification_failures == 0

    def test_policy_file_must_be_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ServiceError):
            load_slo_policy(str(path))


def test_soak_is_reproducible(road300, signer):
    """Same seed ⇒ same trace digest and same query/update volumes
    (latencies of course differ run to run)."""
    scenario = get_scenario("steady").scaled(0.2)

    def once():
        method = DataOwner(road300.copy(), signer=signer).publish("DIJ")
        trace = generate_traffic(method.graph, scenario, seed=4)
        return run_loadtest(trace, signer.verify, method=method,
                            update_signer=signer, clients=2, time_scale=0.05)

    a, b = once(), once()
    assert a.trace_digest == b.trace_digest
    assert a.total_queries == b.total_queries
    assert [p.requests for p in a.phases] == [p.requests for p in b.phases]


class TestReplay:
    """3 passes x 2 updates through the inline topology: each update is
    a barrier, so every pass verifies at the version it was served
    under and the server's window counts exactly its pushes."""

    @pytest.fixture(scope="class", params=[0, 4], ids=["query", "batch4"])
    def replay(self, request, road300, signer):
        method = DataOwner(road300.copy(), signer=signer).publish("DIJ")
        queries = list(generate_workload(method.graph, 1000.0, count=9,
                                         seed=3, tolerance=1.0))
        trace = replay_trace(method.graph, queries, passes=3,
                             updates_per_pass=2, batch_size=request.param)
        report = run_loadtest(trace, signer.verify, method=method,
                              update_signer=signer)
        return report, method, len(queries)

    def test_every_pass_pushes_and_verifies(self, replay):
        report, _, count = replay
        assert [p.name for p in report.phases] == ["cold", "warm1", "warm2"]
        for phase in report.phases:
            assert phase.mode == "closed"
            assert phase.updates_pushed == 2
            assert phase.server_window["updates"] == 2
            assert phase.all_verified, phase.failures
            assert phase.queries == phase.verified == count
        assert report.all_verified

    def test_final_floor_is_the_served_version(self, replay):
        report, method, _ = replay
        assert report.final_version == method.descriptor.version
        assert report.freshness_failures == ()

    def test_replay_trace_layout(self, road300):
        queries = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
        trace = replay_trace(road300, queries, passes=2, updates_per_pass=2,
                             batch_size=2, seed=1)
        kinds = [e.kind for e in trace.events_of("cold")]
        assert kinds == ["batch", "update", "batch", "update", "batch"]
        assert trace.digest() == replay_trace(
            road300, queries, passes=2, updates_per_pass=2, batch_size=2,
            seed=1).digest()
        with pytest.raises(WorkloadError):
            replay_trace(road300, queries, passes=1)

    def test_replay_updates_are_drawn_up_front_and_dealt_evenly(self,
                                                                road300):
        queries = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]
        trace = replay_trace(road300, queries, passes=3, updates_per_pass=2,
                             seed=5)
        assert [spec.name for spec, _ in trace.phases] == \
            ["cold", "warm1", "warm2"]
        assert all(spec.closed_loop for spec, _ in trace.phases)
        drawn = []
        for spec, events in trace.phases:
            assert spec.events == len(events)
            assert [e.queries[0] for e in events if e.kind == "query"] == \
                queries
            drawn += [e.update for e in events if e.kind == "update"]
        assert drawn == list(generate_update_workload(
            road300, 6, seed=5, kinds=(UPDATE_WEIGHT,)))

    def test_tiny_replay_closes_each_pass_with_its_leftover_updates(
            self, road300):
        trace = replay_trace(road300, [(1, 2)], passes=2, updates_per_pass=3)
        for name in ("cold", "warm1"):
            assert [e.kind for e in trace.events_of(name)] == \
                ["query", "update", "update", "update"]

    @pytest.mark.parametrize("queries,kwargs", [
        ([], {}),
        ([(1, 2)], {"updates_per_pass": -1}),
        ([(1, 2)], {"batch_size": -1}),
    ], ids=["empty", "negative-updates", "negative-batch"])
    def test_replay_trace_rejects_bad_shapes(self, road300, queries, kwargs):
        with pytest.raises(WorkloadError):
            replay_trace(road300, queries, **kwargs)


def test_pushes_are_dropped_without_an_update_signer(road300, signer):
    method = DataOwner(road300.copy(), signer=signer).publish("DIJ")
    queries = list(generate_workload(method.graph, 1000.0, count=4, seed=3,
                                     tolerance=1.0))
    published = method.descriptor.version
    trace = replay_trace(method.graph, queries, updates_per_pass=1)
    report = run_loadtest(trace, signer.verify, method=method)
    assert report.all_verified, [p.failures for p in report.phases]
    assert [p.updates_pushed for p in report.phases] == [0, 0]
    assert report.final_version == 0  # no push, so no floor was raised
    assert method.descriptor.version == published


def test_driver_validates_before_connecting(road300, signer):
    trace = replay_trace(road300, [(1, 2)])
    url = "http://127.0.0.1:1"  # nothing listens: validation comes first
    with pytest.raises(ServiceError, match="exactly one topology"):
        run_loadtest(trace, signer.verify)
    with pytest.raises(ServiceError, match="exactly one topology"):
        run_loadtest(trace, signer.verify, url=url, artifact_path="a.rspv")
    with pytest.raises(ServiceError, match="clients"):
        run_loadtest(trace, signer.verify, url=url, clients=0)


def test_time_scale_must_be_positive(road300, signer):
    trace = replay_trace(road300, [(1, 2)])
    with pytest.raises(ServiceError, match="time_scale"):
        run_loadtest(trace, signer.verify, url="http://127.0.0.1:1",
                     time_scale=0.0)


def test_metrics_scrape_is_none_when_nothing_listens():
    assert fetch_http_metrics("http://127.0.0.1:1", timeout=1.0) is None

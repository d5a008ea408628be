"""Adversarial soak: hostile frames mid-traffic, zero untyped failures.

The dispatcher's contract is that *nothing* a client sends crashes the
serving stack: malformed bytes, truncated frames, bit flips, frames
announcing unknown protocol versions and replayed stale requests must
all come back as typed wire errors (or, for a replay of a well-formed
request, a correct answer) while the well-formed traffic around them
keeps verifying.  The ``adversarial-soak`` scenario drives that mix at
volume through the real HTTP stack; these tests pin the aggregate
outcome and the per-kind expectations.
"""

from __future__ import annotations

import pytest

from repro.bench.serving import run_loadtest
from repro.core.framework import DataOwner
from repro.crypto.signer import NullSigner
from repro.workload.traffic import (
    GARBAGE_BAD_VERSION,
    GARBAGE_BITFLIP,
    GARBAGE_EXPECTATION,
    GARBAGE_NOISE,
    GARBAGE_REPLAY,
    GARBAGE_TRUNCATED,
    generate_traffic,
    get_scenario,
)


@pytest.fixture(scope="module")
def soak_report(road300):
    """One hostile soak, shared by the assertions below."""
    signer = NullSigner()
    method = DataOwner(road300.copy(), signer=signer).publish("DIJ")
    scenario = get_scenario("adversarial-soak").scaled(0.4)
    trace = generate_traffic(method.graph, scenario, seed=99)
    return run_loadtest(trace, signer.verify, method=method,
                        update_signer=signer, clients=2, time_scale=0.05)


def test_soak_sends_every_garbage_kind(road300):
    """The scenario's trace actually exercises all five hostile kinds."""
    scenario = get_scenario("adversarial-soak").scaled(0.4)
    trace = generate_traffic(road300, scenario, seed=99)
    kinds = {e.garbage_kind for _, events in trace.phases
             for e in events if e.garbage_kind}
    assert kinds == {GARBAGE_NOISE, GARBAGE_TRUNCATED, GARBAGE_BITFLIP,
                     GARBAGE_BAD_VERSION, GARBAGE_REPLAY}
    assert set(kinds) <= set(GARBAGE_EXPECTATION)


def test_hostile_frames_never_raise_untyped(soak_report):
    """Every hostile frame produced a typed outcome — no exception ever
    escaped the dispatcher into the transport."""
    assert soak_report.untyped_garbage == 0
    sent = sum(p.garbage_sent for p in soak_report.phases)
    assert sent > 0, "adversarial scenario sent no garbage"
    unexpected = sum(p.garbage_unexpected for p in soak_report.phases)
    assert unexpected == 0, [p.failures for p in soak_report.phases]


def test_honest_traffic_survives_the_hostility(soak_report):
    """All well-formed responses around the garbage verified, including
    any served after mid-soak update pushes."""
    assert soak_report.all_verified, [p.failures for p in soak_report.phases]
    assert soak_report.verification_failures == 0
    assert soak_report.total_queries > 0
    for phase in soak_report.phases:
        assert phase.all_verified, phase.failures


def test_soak_is_seed_deterministic(road300):
    """Same seed, same hostile byte stream (frames and all)."""
    scenario = get_scenario("adversarial-soak").scaled(0.4)
    a = generate_traffic(road300, scenario, seed=99)
    b = generate_traffic(road300, scenario, seed=99)
    c = generate_traffic(road300, scenario, seed=100)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()

"""Differential oracle: the columnar verifier against the one it replaced.

``reference_verifier`` is the old client path, verbatim but for one
line: its LDM bound subtracts the signed slack Δ.  New and old
must return the same ``(ok, reason)`` — and the same ``checks`` when
they accept — on honest replies, on every attack in
``repro.core.adversary``, on replies that disclose a different (validly
re-proved) set of authentic tuples, on LDM replies taken between
rebases (Δ > 0), and on payloads with a byte
flipped, cut short or padded.  One divergence is tolerated: a varint of
63 bits or more, which no owner can encode, used to decode and die at
the root (``root-mismatch``) and is now refused by the decoder
(``malformed-proof``); both reject.
"""

import copy
import dataclasses
import random

import pytest
from reference_verifier import REFERENCE_VERIFY

from repro.core import adversary
from repro.core.method import get_method
from repro.core.proofs import DIRECTORY_TREE, DISTANCE_TREE, NETWORK_TREE, TreeSection
from repro.errors import MethodError
from repro.workload.queries import generate_workload

METHOD_NAMES = ["DIJ", "FULL", "LDM", "HYP"]
BUILD = {"DIJ": {}, "FULL": {}, "LDM": dict(c=24), "HYP": dict(num_cells=25)}


def agree(name, vs, vt, response, signer, **kwargs):
    """Verify with both; assert they agree; return the new verdict."""
    new = get_method(name).verify(vs, vt, response, signer.verify, **kwargs)
    old = REFERENCE_VERIFY[name](vs, vt, response, signer.verify, **kwargs)
    if (old.reason, new.reason) == ("root-mismatch", "malformed-proof"):
        assert "63 bits" in new.detail, (name, vs, vt, new.detail)
        return new
    assert (new.ok, new.reason) == (old.ok, old.reason), (
        name, vs, vt, new.detail, old.detail)
    if new.ok:
        assert new.checks == old.checks, (name, vs, vt)
    return new


def with_sections(honest, **sections):
    """A shallow copy of *honest* with some sections replaced."""
    response = copy.copy(honest)
    response.sections = {**honest.sections, **sections}
    return response


def adjacent_pair(graph):
    u, v, _ = next(iter(graph.edges()))
    return u, v


@pytest.fixture(scope="module")
def built700(road700, signer):
    return {name: get_method(name).build(road700, signer, **BUILD[name])
            for name in ("DIJ", "LDM", "HYP")}


@pytest.fixture(scope="module")
def built_grid(grid5, signer):
    params = {"DIJ": {}, "FULL": {}, "LDM": dict(c=4), "HYP": dict(num_cells=4)}
    return {name: get_method(name).build(grid5, signer, **params[name])
            for name in METHOD_NAMES}


class TestHonestReplies:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_road300(self, name, methods, road300, workload, signer):
        node = road300.node_ids()[17]
        pairs = list(workload.queries) + [adjacent_pair(road300), (node, node)]
        for vs, vt in pairs:
            if vs == vt and name == "FULL":
                continue  # FULL refuses degenerate queries
            assert agree(name, vs, vt, methods[name].answer(vs, vt), signer).ok

    @pytest.mark.parametrize("name", ["DIJ", "LDM", "HYP"])
    def test_road700(self, name, built700, road700, signer):
        pairs = list(generate_workload(road700, 1500.0, count=6, seed=5).queries)
        for vs, vt in pairs + [adjacent_pair(road700)]:
            assert agree(name, vs, vt, built700[name].answer(vs, vt), signer).ok

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_grid_ties(self, name, built_grid, signer):
        # Unit lattice: every pair has many equal-cost shortest paths
        # and the searches settle whole rings at one distance.
        for vs, vt in [(0, 24), (4, 20), (0, 1), (12, 12), (2, 22), (7, 17)]:
            if vs == vt and name == "FULL":
                continue
            assert agree(name, vs, vt, built_grid[name].answer(vs, vt), signer).ok

    def test_cell_with_one_border_node(self, road300, signer):
        for num_cells in (25, 36, 49, 64):
            method = get_method("HYP").build(road300, signer, num_cells=num_cells)
            partition = method._partition
            lone = [c for c in partition.occupied_cells
                    if len(partition.borders_of(c)) == 1]
            if lone:
                break
        else:
            pytest.fail("no partition of road300 has a one-border cell")
        inside = partition.members_of(lone[0])
        outside = [v for v in road300.node_ids()
                   if partition.cell(v) != lone[0]]
        for vs, vt in [(inside[0], outside[3]), (outside[-1], inside[-1]),
                       (inside[0], inside[-1])]:
            assert agree("HYP", vs, vt, method.answer(vs, vt), signer).ok


@pytest.mark.parametrize("name", METHOD_NAMES)
class TestAdversary:
    """Every attack in ``repro.core.adversary``, both verifiers."""

    def test_response_rewrites(self, name, methods, road300, workload, signer):
        for vs, vt in workload.queries[:4]:
            honest = methods[name].answer(vs, vt)
            attacks = [adversary.tamper_weight, adversary.strip_signature,
                       adversary.inflate_cost]
            if name in ("FULL", "HYP"):
                attacks.append(adversary.forge_distance)
            for attack in attacks:
                assert not agree(name, vs, vt, attack(honest), signer).ok
            try:
                detour = adversary.suboptimal_path(methods[name], road300, vs, vt)
            except MethodError:
                continue
            assert not agree(name, vs, vt, detour, signer).ok

    def test_replayed_for_another_query(self, name, methods, workload, signer):
        (vs, vt), (vs2, vt2) = workload.queries[0], workload.queries[3]
        assert not agree(name, vs2, vt2, methods[name].answer(vs, vt), signer).ok

    def test_dropped_tuples_with_valid_cover(self, name, methods, workload, signer):
        # The root still reconstructs: only the search can object.
        reasons = set()
        for vs, vt in workload.queries:
            response = methods[name].answer(vs, vt)
            for _ in range(4):
                try:
                    response = adversary.drop_tuple(response)
                except MethodError:
                    break
                reasons.add(agree(name, vs, vt, response, signer).reason)
        if name == "DIJ":
            assert "incomplete-subgraph" in reasons

    def test_stale_replay(self, name, road300, signer):
        graph = road300.copy()
        method = get_method(name).build(graph, signer, **BUILD[name])
        vs, vt = generate_workload(graph, 1500.0, count=1, seed=3).queries[0]
        stale = adversary.replay_stale_root(method.answer(vs, vt))
        u, v, w = next(iter(graph.edges()))
        method.update_edge_weight(u, v, w * 2, signer)
        assert agree(name, vs, vt, stale, signer).ok  # authentic without a pin
        verdict = agree(name, vs, vt, stale, signer, min_version=graph.version)
        assert verdict.reason == "stale-descriptor"


#: Post-root verdicts the disclosure draws must reach, per method.
REACHED = {
    "DIJ": {"incomplete-subgraph", "path-node-missing"},
    "LDM": {"incomplete-subgraph", "missing-representative", "path-node-missing"},
    "HYP": {"incomplete-cell", "path-node-missing"},
}


@pytest.mark.parametrize("name", ["DIJ", "LDM", "HYP"])
def test_disclosure_choices(name, methods, workload, signer):
    """What a provider *can* choose: which authentic tuples to show.

    Each draw drops one to three nodes from an honest disclosure and
    re-proves the rest, so the root reconstructs and the verdict is the
    search's: this is what walks the mask paths (undisclosed neighbour,
    unresolvable representative, withheld cell member or path node).
    """
    rng = random.Random(2010)
    method = methods[name]
    reasons = set()
    for vs, vt in workload.queries[:5]:
        honest = method.answer(vs, vt)
        node_ids = [method._bundle.order[p]
                    for p in honest.section(NETWORK_TREE).positions]
        off_path = [v for v in node_ids if v not in honest.path_nodes]
        for draw in range(12):
            # Mostly off the path, or the path check answers every draw.
            pool = node_ids if draw == 0 or not off_path else off_path
            dropped = set(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
            response = with_sections(honest, network=method._bundle.section_for(
                [v for v in node_ids if v not in dropped]))
            reasons.add(agree(name, vs, vt, response, signer).reason)
    assert reasons >= REACHED[name], reasons


def test_hyp_withheld_hyperedges_and_directories(hyp, workload, signer):
    """HYP's other two sections, re-proved the same way: hyper-edge
    tuples withheld or repeated for other cells, directories of the
    wrong cells."""
    rng = random.Random(1977)
    reasons = set()
    cells = sorted(hyp._directory_payloads)
    for vs, vt in workload.queries[:5]:
        honest = hyp.answer(vs, vt)
        variants = []
        if DISTANCE_TREE in honest.sections:
            section = honest.section(DISTANCE_TREE)
            for _ in range(4):
                keep = sorted(rng.sample(range(len(section.positions)),
                                         max(1, len(section.positions) - rng.randint(1, 3))))
                positions = [section.positions[i] for i in keep]
                variants.append((DISTANCE_TREE, TreeSection(
                    DISTANCE_TREE, positions,
                    [section.payloads[i] for i in keep],
                    hyp._distance_tree.prove(positions))))
            variants.append((DISTANCE_TREE, None))  # withheld altogether
        for _ in range(3):
            chosen = sorted(rng.sample(cells, 2))
            positions = [hyp._directory_payloads[c][0] for c in chosen]
            variants.append((DIRECTORY_TREE, TreeSection(
                DIRECTORY_TREE, positions,
                [hyp._directory_payloads[c][1] for c in chosen],
                hyp._directory_tree.prove(positions))))
        for tree, replacement in variants:
            response = with_sections(honest, **{tree: replacement})
            if replacement is None:
                del response.sections[tree]
            reasons.add(agree("HYP", vs, vt, response, signer).reason)
    assert reasons >= {"incomplete-hyperedges", "directory-mismatch"}, reasons


def test_ldm_code_width_disagrees_with_signed_params(road300, signer):
    """Tuples packed at 8 bits under a descriptor that signs 12: the
    bits field is consulted where the search first needs a vector, and
    the verdict is the old one — not an exception, not a decode error."""
    from repro.core.checks import resign_descriptor
    from repro.core.ldm import LdmParams

    method = get_method("LDM").build(road300, signer, c=6, bits=8)
    params = LdmParams.decode(method.descriptor.params)
    old = method.descriptor
    method._descriptor = resign_descriptor(
        old, signer, trees=old.trees, version=old.version,
        params=LdmParams(params.landmarks, 12, params.d_max, params.lam,
                         params.xi).encode())
    vs, vt = generate_workload(road300, 1500.0, count=1, seed=3).queries[0]
    verdict = agree("LDM", vs, vt, method.answer(vs, vt), signer)
    assert verdict.reason == "missing-representative"


@pytest.fixture(scope="module")
def drifted(road300, signer):
    """LDM between rebases: six re-weights absorbed as slack, Δ = 24."""
    from repro.core.ldm import LdmParams

    graph = road300.copy()
    method = get_method("LDM").build(graph, signer, **BUILD["LDM"])
    for u, v, w in sorted(graph.edges())[::40][:6]:
        graph.update_edge_weight(u, v, w - 4.0)
    assert method.apply_update(signer).mode == "incremental"
    assert LdmParams.decode(method.descriptor.params).slack == 24.0
    pairs = generate_workload(graph, 1500.0, count=30, seed=5).queries
    return method, pairs


class TestBetweenRebases:
    def test_honest_and_attacked_replies(self, drifted, signer):
        method, pairs = drifted
        for vs, vt in pairs[:10]:
            honest = method.answer(vs, vt)
            assert agree("LDM", vs, vt, honest, signer).ok
            for attack in (adversary.tamper_weight, adversary.strip_signature,
                           adversary.inflate_cost):
                assert not agree("LDM", vs, vt, attack(honest), signer).ok
            try:
                detour = adversary.suboptimal_path(method, method.graph, vs, vt)
            except MethodError:
                continue
            assert not agree("LDM", vs, vt, detour, signer).ok

    def test_zero_slack_cone_under_signed_slack(self, drifted, signer):
        """A provider that searches as if Δ were 0 discloses a smaller
        cone than the signed Δ asks for; where the two differ, the
        client runs off the disclosure."""
        method, pairs = drifted
        honest_params = method._params
        differ = 0
        for vs, vt in pairs:
            method._params = dataclasses.replace(honest_params, slack=0.0)
            try:
                cheat = method.answer(vs, vt)
            finally:
                method._params = honest_params
            if cheat.section(NETWORK_TREE).positions == \
                    method.answer(vs, vt).section(NETWORK_TREE).positions:
                continue
            differ += 1
            assert agree("LDM", vs, vt, cheat, signer).reason == \
                "incomplete-subgraph"
        assert differ

    def test_edited_slack_fails_signature(self, drifted, signer):
        from repro.core.ldm import LdmParams

        method, pairs = drifted
        vs, vt = pairs[0]
        honest = method.answer(vs, vt)
        params = LdmParams.decode(honest.descriptor.params)
        for slack in (0.0, 12.0, 1e9):
            forged = copy.copy(honest)
            forged.descriptor = dataclasses.replace(
                honest.descriptor,
                params=dataclasses.replace(params, slack=slack).encode())
            assert agree("LDM", vs, vt, forged, signer).reason == \
                "bad-signature"


def mutations(payload):
    """Each byte flipped (low bit, high bit), each proper prefix, one
    byte appended."""
    for i in range(len(payload)):
        for mask in (0x01, 0x80):
            yield payload[:i] + bytes([payload[i] ^ mask]) + payload[i + 1:]
        yield payload[:i]
    yield payload + b"\x00"


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_payload_byte_sweep(name, methods, workload, signer):
    vs, vt = workload.queries[1]
    honest = methods[name].answer(vs, vt)
    reasons = set()
    for tree, section in honest.sections.items():
        count = len(section.payloads)
        for index in sorted({0, count // 2, count - 1}):
            for mutated in mutations(section.payloads[index]):
                payloads = list(section.payloads)
                payloads[index] = mutated
                response = with_sections(honest, **{tree: TreeSection(
                    tree, section.positions, payloads, section.entries)})
                verdict = agree(name, vs, vt, response, signer)
                assert not verdict.ok
                reasons.add(verdict.reason)
    assert reasons == {"malformed-proof", "root-mismatch"}

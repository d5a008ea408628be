"""Hostile packers: well-formed artifacts whose content is wrong.

Every section digest in these packs is correct — they are written by
:class:`ArtifactWriter` from a valid artifact with one section or
header field changed — so the container checks pass and the refusal has
to come from the loader's semantic validation: the graph sections, the
method state and the signed descriptor must agree with one another.
Each such pack must be refused with :class:`ArtifactError`, naming what
is wrong, and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ArtifactError
from repro.store import load_method
from repro.store.pack import KIND_BYTES, ArtifactReader, ArtifactWriter


def repack(source: str, path, *, arrays=None, blobs=None, drop=(),
           **header) -> str:
    """Copy *source* to *path* with sections replaced, dropped, or
    header fields (``method``, ``build_params``, ``descriptor_bytes``)
    overridden; every digest of the copy is freshly computed."""
    arrays, blobs = arrays or {}, blobs or {}
    reader = ArtifactReader(source, mmap_mode=None)
    fields = dict(method=reader.method, graph_version=reader.graph_version,
                  algo_sp=reader.algo_sp, build_params=reader.build_params,
                  publish_params=reader.publish_params,
                  descriptor_bytes=reader.descriptor_bytes)
    fields.update(header)
    writer = ArtifactWriter(**fields)
    for name, info in reader.sections.items():
        if name in drop:
            continue
        if info.kind == KIND_BYTES:
            writer.add_bytes(name, blobs.get(name, reader.view(name)))
        else:
            writer.add_array(name, arrays.get(name, reader.array(name)))
    reader.close()
    writer.write(str(path))
    return str(path)


def section(source: str, name: str):
    reader = ArtifactReader(source, mmap_mode=None)
    try:
        return (bytes(reader.view(name))
                if reader.sections[name].kind == KIND_BYTES
                else reader.array(name).copy())
    finally:
        reader.close()


def refused(path: str, match: str) -> None:
    with pytest.raises(ArtifactError, match=match):
        load_method(path)


def test_an_unchanged_repack_loads_and_answers_identically(
        artifact_paths, built_methods, workload, tmp_path):
    path = repack(artifact_paths["LDM"], tmp_path / "same.rspv")
    method = load_method(path)
    for vs, vt in workload:
        assert method.answer(vs, vt).encode() == \
            built_methods["LDM"].answer(vs, vt).encode()


def _graph_cases(source: str) -> "dict[str, tuple[dict, str]]":
    ids, xs = section(source, "graph/ids"), section(source, "graph/x")
    eu, ev = section(source, "graph/edge_u"), section(source, "graph/edge_v")
    ew = section(source, "graph/edge_w")

    def edited(array, index, value):
        array = array.copy()
        array[index] = value
        return array

    swapped_ids = edited(ids, [0, 1], ids[[1, 0]])
    return {
        "node-shapes": ({"graph/x": xs[:-1]}, "node sections disagree"),
        "edge-shapes": ({"graph/edge_w": ew[:-1]}, "edge sections disagree"),
        "no-nodes": ({"graph/ids": ids[:0], "graph/x": xs[:0],
                      "graph/y": xs[:0], "graph/edge_u": eu[:0],
                      "graph/edge_v": ev[:0], "graph/edge_w": ew[:0]},
                     "no nodes"),
        "ids-unordered": ({"graph/ids": swapped_ids}, "strictly increasing"),
        "coordinate-nan": ({"graph/x": edited(xs, 0, np.nan)}, "not finite"),
        "edge-reversed": ({"graph/edge_u": edited(eu, 0, ev[0]),
                           "graph/edge_v": edited(ev, 0, eu[0])},
                          "canonical"),
        "edge-unknown-node": ({"graph/edge_v": edited(ev, -1, ids[-1] + 1)},
                              "unknown node"),
        "weight-negative": ({"graph/edge_w": edited(ew, 0, -1.0)},
                            "weights are not finite and >= 0"),
        "edge-duplicate": ({"graph/edge_u": edited(eu, 1, eu[0]),
                            "graph/edge_v": edited(ev, 1, ev[0])},
                           "strictly sorted"),
    }


@pytest.mark.parametrize("case", ["node-shapes", "edge-shapes", "no-nodes",
                                  "ids-unordered", "coordinate-nan",
                                  "edge-reversed", "edge-unknown-node",
                                  "weight-negative", "edge-duplicate"])
def test_inconsistent_graph_sections_are_refused(artifact_paths, tmp_path,
                                                 case):
    source = artifact_paths["DIJ"]
    arrays, match = _graph_cases(source)[case]
    refused(repack(source, tmp_path / f"{case}.rspv", arrays=arrays), match)


class TestHeader:
    def test_unknown_method_is_refused(self, artifact_paths, tmp_path):
        refused(repack(artifact_paths["DIJ"], tmp_path / "m.rspv",
                       method="NOPE"), "NOPE")

    def test_undecodable_descriptor_is_refused(self, artifact_paths,
                                               tmp_path):
        refused(repack(artifact_paths["DIJ"], tmp_path / "d.rspv",
                       descriptor_bytes=b"not a descriptor"),
                "descriptor does not decode")

    def test_descriptor_of_another_method_is_refused(self, artifact_paths,
                                                     tmp_path):
        other = ArtifactReader(artifact_paths["FULL"]).descriptor_bytes
        refused(repack(artifact_paths["DIJ"], tmp_path / "o.rspv",
                       descriptor_bytes=other), "loader is DIJ")

    def test_build_params_without_ordering_are_refused(self, artifact_paths,
                                                       tmp_path):
        params = ArtifactReader(artifact_paths["DIJ"]).build_params
        del params["ordering"]
        refused(repack(artifact_paths["DIJ"], tmp_path / "p.rspv",
                       build_params=params), "no leaf ordering")


class TestBundleSections:
    def test_missing_array_section_is_refused(self, artifact_paths,
                                              tmp_path):
        refused(repack(artifact_paths["DIJ"], tmp_path / "a.rspv",
                       drop=("network/order",)),
                "missing array section 'network/order'")

    def test_missing_byte_section_is_refused(self, artifact_paths, tmp_path):
        refused(repack(artifact_paths["DIJ"], tmp_path / "b.rspv",
                       drop=("network/payloads",)),
                "missing byte section 'network/payloads'")

    def test_wrong_dtype_is_refused(self, artifact_paths, tmp_path):
        order = section(artifact_paths["DIJ"], "network/order")
        refused(repack(artifact_paths["DIJ"], tmp_path / "t.rspv",
                       arrays={"network/order": order.astype(np.int32)}),
                "has dtype int32")

    def test_wrong_shape_is_refused(self, artifact_paths, tmp_path):
        offsets = section(artifact_paths["DIJ"], "network/payload_offsets")
        refused(repack(artifact_paths["DIJ"], tmp_path / "s.rspv",
                       arrays={"network/payload_offsets": offsets[:-1]}),
                "has shape")

    def test_offsets_that_do_not_cover_the_payloads_are_refused(
            self, artifact_paths, tmp_path):
        offsets = section(artifact_paths["DIJ"], "network/payload_offsets")
        offsets[1], offsets[2] = offsets[2], offsets[1]
        refused(repack(artifact_paths["DIJ"], tmp_path / "c.rspv",
                       arrays={"network/payload_offsets": offsets}),
                "monotone cover")

    def test_leaf_order_off_the_graph_is_refused(self, artifact_paths,
                                                 tmp_path):
        order = section(artifact_paths["DIJ"], "network/order")
        order[0] = order[1]
        refused(repack(artifact_paths["DIJ"], tmp_path / "l.rspv",
                       arrays={"network/order": order}),
                "not a permutation")

    def test_tree_with_another_root_is_refused(self, artifact_paths,
                                               tmp_path):
        tree = bytearray(section(artifact_paths["DIJ"], "network/tree"))
        tree[-1] ^= 0x01
        refused(repack(artifact_paths["DIJ"], tmp_path / "r.rspv",
                       blobs={"network/tree": bytes(tree)}),
                "does not match the signed root")

    def test_tree_of_the_wrong_size_is_refused(self, artifact_paths,
                                               tmp_path):
        tree = section(artifact_paths["DIJ"], "network/tree")
        refused(repack(artifact_paths["DIJ"], tmp_path / "z.rspv",
                       blobs={"network/tree": tree[:-20]}),
                "section 'network/tree'")


class TestMethodParams:
    def _params_without(self, source: str, key: str) -> dict:
        params = ArtifactReader(source).build_params
        del params[key]
        return params

    def test_ldm_without_its_compression_plan_is_refused(
            self, artifact_paths, tmp_path):
        source = artifact_paths["LDM"]
        refused(repack(source, tmp_path / "plan.rspv",
                       build_params=self._params_without(
                           source, "compression_plan_pin")),
                "no pinned compression plan")

    def test_ldm_plan_naming_unknown_nodes_is_refused(self, artifact_paths,
                                                      tmp_path):
        source = artifact_paths["LDM"]
        params = ArtifactReader(source).build_params
        params["compression_plan_pin"] = {10 ** 9: 10 ** 9 + 1}
        refused(repack(source, tmp_path / "unknown.rspv",
                       build_params=params), "unknown node ids")

    def test_ldm_without_its_drift_record_is_refused(self, artifact_paths,
                                                     tmp_path):
        source = artifact_paths["LDM"]
        refused(repack(source, tmp_path / "drift.rspv",
                       build_params=self._params_without(source,
                                                         "drift_pin")),
                "malformed drift record")

    def test_hyp_without_its_cell_count_is_refused(self, artifact_paths,
                                                   tmp_path):
        source = artifact_paths["HYP"]
        refused(repack(source, tmp_path / "cells.rspv",
                       build_params=self._params_without(source,
                                                         "num_cells")),
                "no cell count")

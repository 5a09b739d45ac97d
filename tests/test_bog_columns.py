"""BOGs at rest as columns against their twins whose node views were read.

A BOG built by the op constructors, or unpickled, holds columns and builds
its read-only ``Node`` views only when code reads ``.nodes``.  Reading the
views must change nothing computed from the graph: the fanin CSR, the
lowered timing network and the pickle bytes.  Inference must never build
the views of an AIG, AIMG or XAG.
"""

from __future__ import annotations

import pickle
import pickletools

import numpy as np
import pytest

from repro.bog import build_variants, graph as graph_mod
from repro.bog.graph import NODE_TYPE_CODE, BOG_VARIANTS, Endpoint, Node, NodeType
from repro.core.bitwise import BitwiseConfig
from repro.core.dataset import build_design_record
from repro.core.overall import OverallConfig
from repro.core.pipeline import RTLTimer, RTLTimerConfig
from repro.core.signalwise import SignalwiseConfig
from repro.sta import from_bog

from tests.conftest import TINY_SPECS


def _copy(bog):
    return pickle.loads(pickle.dumps(bog, protocol=5))


def _pair(bog):
    """A copy of ``bog`` at rest and a twin of it whose node views were read."""
    at_rest, twin = _copy(bog), _copy(bog)
    twin.nodes  # noqa: B018 - builds the node views
    return at_rest, twin


@pytest.fixture
def materialized(monkeypatch):
    """The variant of every BOG whose ``.nodes`` built its node views, in order."""
    built = []
    nodes = graph_mod.BOG.nodes

    def counting(bog):
        if bog._nodes is None:
            built.append(bog.variant)
        return nodes.fget(bog)

    monkeypatch.setattr(graph_mod.BOG, "nodes", property(counting))
    return built


@pytest.fixture(scope="module")
def graphs(tiny_records):
    """Every BOG variant of every tiny design (a record keeps only the SOG)."""
    return [build_variants(record.design) for record in tiny_records]


@pytest.fixture(scope="module")
def cases(graphs):
    return [(variants, variant) for variants in graphs for variant in BOG_VARIANTS]


def test_fanin_csr_identical(cases):
    for variants, variant in cases:
        bog = variants[variant]
        at_rest, twin = _pair(bog)
        for a, b, c in zip(bog.fanin_csr(), at_rest.fanin_csr(), twin.fanin_csr()):
            assert a.dtype == b.dtype == c.dtype
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_lowered_columns_identical(cases, materialized):
    for variants, variant in cases:
        at_rest, twin = _pair(variants[variant])
        before = len(materialized)
        a, b = from_bog(at_rest), from_bog(twin)
        assert len(materialized) == before
        left, right = a.columns(), b.columns()
        for name in ("kind", "fanin_indptr", "fanin_indices", "cell_row", "derate", "extra_load"):
            x, y = getattr(left, name), getattr(right, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert left.names == right.names
        assert [c and c.name for c in left.cells] == [c and c.name for c in right.cells]
        assert a.endpoints == b.endpoints


def test_pickle_bytes_identical(cases, materialized):
    for variants, variant in cases:
        bog = variants[variant]
        at_rest, twin = _pair(bog)
        before = len(materialized)
        blob = pickle.dumps(at_rest, protocol=5)
        assert pickle.dumps(twin, protocol=5) == blob
        assert pickle.dumps(bog, protocol=5) == blob
        assert len(materialized) == before


def test_pickles_carry_columns_only(tiny_record):
    blob = pickle.dumps(tiny_record, protocol=5)
    strings = {arg for _, arg, _ in pickletools.genops(blob) if isinstance(arg, str)}
    assert "BOG" in strings and "EndpointColumns" in strings
    assert "Node" not in strings and "Endpoint" not in strings


def test_round_trip_keeps_the_graph(cases):
    for variants, variant in cases:
        bog = variants[variant]
        copy = _copy(bog)
        assert copy.nodes == bog.nodes
        assert copy.endpoints == bog.endpoints
        assert list(copy.sources.items()) == list(bog.sources.items())
        assert (copy._const0, copy._const1) == (bog._const0, bog._const1)


def test_strash_is_rebuilt_after_unpickling(graphs):
    copy = _copy(graphs[0]["aig"])
    codes, indptr, indices = copy.fanin_csr()
    node = int(np.flatnonzero(codes == NODE_TYPE_CODE[NodeType.AND])[-1])
    a, b = indices[indptr[node] : indptr[node + 1]].tolist()
    size = len(copy)
    assert copy.AND(a, b) == node
    assert copy.AND(b, a) == node
    assert len(copy) == size
    fresh = copy.AND(a, copy.NOT(b))
    assert copy.AND(copy.NOT(b), a) == fresh
    copy.validate()


def test_construction_after_reading_the_views_shows_the_new_rows(graphs):
    copy = _copy(graphs[0]["xag"])
    nodes, endpoints = copy.nodes, copy.endpoints
    a, b = next(iter(copy.sources.values())), len(copy) - 1
    node = copy.XOR(a, b)
    assert copy.XOR(b, a) == node
    assert copy.nodes[: len(nodes)] == nodes
    assert copy.nodes[node] == Node(node, NodeType.XOR, (a, b))
    copy.add_endpoint("out", "out", 0, node, kind="output")
    assert copy.endpoints[: len(endpoints)] == endpoints
    assert copy.endpoints[-1] == Endpoint("out", "out", 0, node, "output")
    copy.validate()
    assert _copy(copy).nodes == copy.nodes and _copy(copy).endpoints == copy.endpoints


def test_predict_materializes_only_the_label_sog(tiny_records, materialized):
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(n_estimators=10, max_depth=3, max_train_endpoints_per_design=40),
        signalwise=SignalwiseConfig(n_estimators=10, ranker_estimators=10),
        overall=OverallConfig(n_estimators=8),
    )
    timer = RTLTimer(config).fit([pickle.loads(pickle.dumps(r)) for r in tiny_records[:3]])
    del materialized[:]
    record = build_design_record(TINY_SPECS[3])
    assert materialized == ["sog"]  # label synthesis maps the SOG
    timer.predict(record)
    assert materialized == ["sog"]

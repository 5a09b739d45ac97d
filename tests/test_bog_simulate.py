"""Tests for BOG functional simulation helpers."""

import random

import pytest

from repro.bog.builder import build_sog
from repro.bog.graph import BOG, NodeType
from repro.bog.simulate import (
    PACKED_LANES,
    evaluate_endpoints,
    evaluate_nodes,
    evaluate_nodes_packed,
    evaluate_signal_words,
    pack_source_vectors,
    unpack_lane,
)
from repro.bog.transforms import build_variants

from tests.conftest import corrupted_bog


@pytest.fixture
def xor_graph():
    g = BOG("xor", variant="sog")
    a, b = g.add_input("a"), g.add_input("b")
    r = g.add_register("R[0]")
    g.add_endpoint("R[0]", "R", 0, g.XOR(a, b), reg_node=r)
    return g


def test_evaluate_nodes_truth_table(xor_graph):
    for a in (0, 1):
        for b in (0, 1):
            values = evaluate_endpoints(xor_graph, {"a": a, "b": b})
            assert values["R[0]"] == a ^ b


def test_missing_sources_default_to_zero(xor_graph):
    assert evaluate_endpoints(xor_graph, {})["R[0]"] == 0
    assert evaluate_endpoints(xor_graph, {"a": 1})["R[0]"] == 1


def test_mux_and_not_evaluation():
    g = BOG("m", variant="sog")
    s, a, b = g.add_input("s"), g.add_input("a"), g.add_input("b")
    r = g.add_register("R[0]")
    g.add_endpoint("R[0]", "R", 0, g.MUX(s, g.NOT(a), b), reg_node=r)
    assert evaluate_endpoints(g, {"s": 1, "a": 0, "b": 0})["R[0]"] == 1
    assert evaluate_endpoints(g, {"s": 0, "a": 0, "b": 1})["R[0]"] == 1
    assert evaluate_endpoints(g, {"s": 1, "a": 1, "b": 1})["R[0]"] == 0


def test_constant_nodes_evaluate():
    g = BOG("c", variant="sog")
    r = g.add_register("R[0]")
    g.add_endpoint("R[0]", "R", 0, g.const1(), reg_node=r)
    g.add_endpoint("R[1]", "R", 1, g.const0(), reg_node=g.add_register("R[1]"))
    values = evaluate_endpoints(g, {})
    assert values["R[0]"] == 1 and values["R[1]"] == 0


def test_signal_words_pack_bits(simple_design):
    sog = build_sog(simple_design)
    words = evaluate_signal_words(sog, {"a[0]": 1, "a[1]": 1, "b[0]": 1, "sel[0]": 0})
    # acc <= (sel ? a+b : a&b) ^ acc  with acc=0, sel=0: (a & b) = 1
    assert words["acc"] == 1


def test_evaluate_nodes_returns_value_per_node(xor_graph):
    values = evaluate_nodes(xor_graph, {"a": 1, "b": 0})
    assert len(values) == len(xor_graph.nodes)
    assert set(values) <= {0, 1}


class TestPackedSimulation:
    def test_packed_matches_scalar_on_every_variant(self, simple_design):
        rng = random.Random(9)
        for variant, graph in build_variants(simple_design).items():
            names = list(graph.sources)
            vectors = [
                {name: rng.getrandbits(1) for name in names}
                for _ in range(PACKED_LANES)
            ]
            packed = evaluate_nodes_packed(graph, pack_source_vectors(vectors))
            for lane in range(PACKED_LANES):
                assert unpack_lane(packed, lane) == evaluate_nodes(
                    graph, vectors[lane]
                ), f"{variant} lane {lane}"

    def test_packed_endpoints_match_scalar(self, xor_graph):
        vectors = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        packed = evaluate_nodes_packed(xor_graph, pack_source_vectors(vectors))
        driver = int(packed[xor_graph.endpoints[0].driver])
        for lane, vector in enumerate(vectors):
            expected = evaluate_endpoints(xor_graph, vector)["R[0]"]
            assert (driver >> lane) & 1 == expected

    def test_partial_lane_count_and_missing_sources(self, xor_graph):
        # Unfilled lanes and missing source names both default to all-zero.
        packed = evaluate_nodes_packed(
            xor_graph, pack_source_vectors([{"a": 1}])
        )
        assert unpack_lane(packed, 0) == evaluate_nodes(xor_graph, {"a": 1})
        assert unpack_lane(packed, 1) == evaluate_nodes(xor_graph, {})

    def test_more_than_64_vectors_rejected(self):
        with pytest.raises(ValueError, match="at most 64"):
            pack_source_vectors([{"a": 1}] * (PACKED_LANES + 1))

    def test_unpack_lane_bounds(self, xor_graph):
        packed = evaluate_nodes_packed(xor_graph, {})
        with pytest.raises(ValueError, match="lane"):
            unpack_lane(packed, PACKED_LANES)
        with pytest.raises(ValueError, match="lane"):
            unpack_lane(packed, -1)

    def test_const1_is_all_ones_in_every_lane(self):
        g = BOG("c", variant="sog")
        r = g.add_register("R[0]")
        g.add_endpoint("R[0]", "R", 0, g.const1(), reg_node=r)
        packed = evaluate_nodes_packed(g, {})
        assert int(packed[g.endpoints[0].driver]) == (1 << PACKED_LANES) - 1


class TestTopologicalOrderValidation:
    def _corrupted(self):
        g = BOG("bad", variant="sog")
        a, b = g.add_input("a"), g.add_input("b")
        r = g.add_register("R[0]")
        node = g.AND(a, b)
        g.add_endpoint("R[0]", "R", 0, node, reg_node=r)
        # Point the AND at a node id that does not precede it.
        return corrupted_bog(g, {node: (NodeType.AND, (node, b))})

    def test_corrupted_graph_rejected_by_topological_order(self):
        with pytest.raises(ValueError, match="not a topological order"):
            self._corrupted().topological_order()

    def test_corrupted_graph_rejected_by_both_evaluators(self):
        for evaluate in (
            lambda g: evaluate_nodes(g, {}),
            lambda g: evaluate_nodes_packed(g, {}),
        ):
            with pytest.raises(ValueError, match="not a topological order"):
                evaluate(self._corrupted())

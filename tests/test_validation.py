"""Pinned first-error behaviour of ``BOG.validate`` and ``TimingNetwork.validate``.

Every branch is hit on a graph with two offending nodes (or vertices), so the
tests pin both the message and which offender is reported first: the lowest
id, with a node's fanin checks before its arity check before its alphabet
check, and endpoint checks (driver, then register node) after all nodes.
Malformed BOGs, and timing networks with a gate that has no cell, are
unpickled from corrupted columns, the form in which untrusted bytes arrive
from the disk cache.
"""

import pickle
import re

import pytest

from repro.bog import convert
from repro.bog.graph import BOG, NodeType
from repro.liberty import pseudo_library
from repro.sta import TimingEndpoint, TimingNetwork, VertexKind

from tests.conftest import corrupted_bog

LIB = pseudo_library()


def _raises(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def _bog(variant="sog"):
    """Inputs a, b, s, register R[0] and two well-formed gates (ids 4, 5)."""
    g = BOG("pin", variant=variant)
    a, b, s = g.add_input("a"), g.add_input("b"), g.add_input("s")
    r = g.add_register("R[0]")
    x = g.AND(a, b)
    y = g.AND(x, s)
    g.add_endpoint("R[0]", "R", 0, y, reg_node=r)
    return g


class TestBOGValidate:
    def test_wellformed_graph_passes(self):
        _bog().validate()

    def test_fanin_that_does_not_precede(self):
        g = corrupted_bog(_bog(), {4: (NodeType.AND, (0, 5)), 5: (NodeType.AND, (5, 1))})
        with _raises("node 4 has fanin 5 that does not precede it"):
            g.validate()

    def test_negative_fanin(self):
        g = corrupted_bog(_bog(), {5: (NodeType.AND, (0, -1)), 4: (NodeType.AND, (-3, 1))})
        with _raises("node 4 has out-of-range fanin -3"):
            g.validate()

    def test_fanin_check_precedes_arity_check(self):
        g = corrupted_bog(_bog(), {5: (NodeType.AND, (9,))})
        with _raises("node 5 has fanin 9 that does not precede it"):
            g.validate()

    def test_not_arity(self):
        g = corrupted_bog(_bog(), {6: (NodeType.NOT, (0, 1)), 7: (NodeType.NOT, ())})
        with _raises("NOT node 6 must have exactly one fanin"):
            g.validate()

    @pytest.mark.parametrize("node_type", [NodeType.AND, NodeType.OR, NodeType.XOR])
    def test_binary_arity(self, node_type):
        g = corrupted_bog(_bog(), {6: (node_type, (0,)), 7: (node_type, (0, 1, 2))})
        with _raises(f"{node_type.value} node 6 must have two fanins"):
            g.validate()

    def test_mux_arity(self):
        g = corrupted_bog(_bog(), {6: (NodeType.MUX, (0, 1)), 7: (NodeType.MUX, (0, 1, 2, 3))})
        with _raises("MUX node 6 must have three fanins"):
            g.validate()

    def test_arity_check_precedes_alphabet_check(self):
        g = corrupted_bog(_bog("aig"), {6: (NodeType.MUX, (0, 1))})
        with _raises("MUX node 6 must have three fanins"):
            g.validate()

    def test_operator_outside_alphabet(self):
        g = corrupted_bog(_bog("aig"), {6: (NodeType.XOR, (0, 1)), 7: (NodeType.OR, (0, 1))})
        with _raises("node 6 of type xor is not allowed in variant 'aig'"):
            g.validate()

    def test_bad_endpoint_driver(self):
        g = _bog()
        g.add_endpoint("R[1]", "R", 1, 6)
        g.add_endpoint("R[2]", "R", 2, -1)
        with _raises("endpoint R[1] has invalid driver"):
            g.validate()

    @pytest.mark.parametrize("reg_node", [99, -1, 4])
    def test_bad_endpoint_reg_node(self, reg_node):
        g = _bog()
        g.add_endpoint("R[1]", "R", 1, 5, reg_node=reg_node)
        g.add_endpoint("R[2]", "R", 2, 5, reg_node=98)
        with _raises(f"endpoint R[1] has invalid reg_node {reg_node}"):
            g.validate()

    @pytest.mark.parametrize("reg_node", [99, 4])
    def test_bad_endpoint_reg_node_at_rest(self, reg_node):
        g = _bog()
        g.add_endpoint("R[1]", "R", 1, 5, reg_node=reg_node)
        with _raises(f"endpoint R[1] has invalid reg_node {reg_node}"):
            pickle.loads(pickle.dumps(g)).validate()

    def test_driver_check_precedes_reg_node_check(self):
        g = _bog()
        g.add_endpoint("R[1]", "R", 1, 6, reg_node=99)
        with _raises("endpoint R[1] has invalid driver"):
            g.validate()

    def test_convert_rejects_bad_reg_node(self):
        g = BOG("three", variant="sog")
        a, b = g.add_input("a"), g.add_input("b")
        g.add_endpoint("q", "q", 0, g.AND(a, b), reg_node=99)
        with _raises("endpoint q has invalid reg_node 99"):
            convert(g, "aig")

    def test_node_errors_precede_endpoint_errors(self):
        g = _bog()
        g.add_endpoint("R[1]", "R", 1, 60)
        g = corrupted_bog(g, {6: (NodeType.NOT, ())})
        with _raises("NOT node 6 must have exactly one fanin"):
            g.validate()


def _network():
    """Input a, register r, and a NOT chain g2 -> g3 -> g4 driving endpoint q."""
    network = TimingNetwork("pin")
    a = network.add_vertex(VertexKind.INPUT, name="a")
    network.add_vertex(VertexKind.REGISTER, cell=LIB.pick("REG"), name="r")
    g2 = network.add_vertex(VertexKind.GATE, fanins=[a], cell=LIB.pick("NOT"))
    g3 = network.add_vertex(VertexKind.GATE, fanins=[g2], cell=LIB.pick("NOT"))
    g4 = network.add_vertex(VertexKind.GATE, fanins=[g3], cell=LIB.pick("NOT"))
    network.add_endpoint(TimingEndpoint(name="q", signal="q", bit=0, driver=g4))
    return network


def _without_cells(network, *vertices):
    """A fresh network unpickled from ``network``'s columns with ``vertices``' cells cleared.

    Synthesis never leaves a gate without a cell, but a pickle from the
    disk cache can carry one.
    """
    state = network.__getstate__()
    columns = state["_columns"]
    columns.cell_row = columns.cell_row.copy()
    columns.cell_row[list(vertices)] = 0
    corrupted = TimingNetwork.__new__(TimingNetwork)
    corrupted.__setstate__(state)
    return corrupted


class TestTimingNetworkValidate:
    def test_wellformed_network_passes(self):
        _network().validate()

    def test_gate_without_cell(self):
        network = _without_cells(_network(), 4, 3)
        with _raises("gate vertex 3 has no cell"):
            network.validate()

    def test_cycle(self):
        network = _network()
        network.set_fanins(2, [0, 4])
        with _raises("timing network 'pin' contains a combinational cycle"):
            network.validate()

    def test_cycle_precedes_missing_cell(self):
        network = _without_cells(_network(), 2)
        network.set_fanins(2, [0, 4])
        with _raises("timing network 'pin' contains a combinational cycle"):
            network.validate()

    def test_bad_endpoint_driver(self):
        network = _network()
        network.add_endpoint(TimingEndpoint(name="p", signal="p", bit=0, driver=5))
        network.add_endpoint(TimingEndpoint(name="o", signal="o", bit=0, driver=-1))
        with _raises("endpoint p has an invalid driver"):
            network.validate()

    def test_vertex_errors_precede_endpoint_errors(self):
        network = _network()
        network.add_endpoint(TimingEndpoint(name="p", signal="p", bit=0, driver=9))
        network = _without_cells(network, 4)
        with _raises("gate vertex 4 has no cell"):
            network.validate()

    @pytest.mark.parametrize("fanin", [7, -1])
    def test_out_of_range_fanin(self, fanin):
        network = TimingNetwork("two")
        a = network.add_vertex(VertexKind.INPUT, name="a")
        network.add_vertex(VertexKind.GATE, fanins=[a, fanin], cell=LIB.pick("AND"))
        with _raises(f"vertex 1 has out-of-range fanin {fanin}"):
            network.validate()

    def test_out_of_range_fanin_precedes_cycle(self):
        network = _network()
        network.set_fanins(2, [0, 4])
        network.set_fanins(3, [2, 11])
        with _raises("vertex 3 has out-of-range fanin 11"):
            network.validate()

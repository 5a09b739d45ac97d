"""Tests for the Boolean operator graph data structure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bog.graph import BOG


@pytest.fixture
def graph():
    return BOG("test", variant="sog")


class TestConstruction:
    def test_constants_are_unique(self, graph):
        assert graph.const0() == graph.const0()
        assert graph.const1() == graph.const1()
        assert graph.const0() != graph.const1()

    def test_sources_are_deduplicated(self, graph):
        a = graph.add_input("a")
        assert graph.add_input("a") == a
        r = graph.add_register("R[0]")
        assert graph.add_register("R[0]") == r

    def test_structural_hashing_commutative_ops(self, graph):
        a, b = graph.add_input("a"), graph.add_input("b")
        assert graph.AND(a, b) == graph.AND(b, a)
        assert graph.XOR(a, b) == graph.XOR(b, a)
        assert graph.OR(a, b) == graph.OR(b, a)

    def test_mux_is_not_commutative(self, graph):
        s, a, b = graph.add_input("s"), graph.add_input("a"), graph.add_input("b")
        assert graph.MUX(s, a, b) != graph.MUX(s, b, a)

    def test_variant_restricts_operators(self):
        aig = BOG("aig_graph", variant="aig")
        a, b = aig.add_input("a"), aig.add_input("b")
        aig.AND(a, b)
        with pytest.raises(ValueError):
            aig.OR(a, b)
        with pytest.raises(ValueError):
            aig.MUX(a, a, b)


class TestFolding:
    def test_and_identities(self, graph):
        a = graph.add_input("a")
        assert graph.AND(a, graph.const1()) == a
        assert graph.AND(a, graph.const0()) == graph.const0()
        assert graph.AND(a, a) == a

    def test_or_identities(self, graph):
        a = graph.add_input("a")
        assert graph.OR(a, graph.const0()) == a
        assert graph.OR(a, graph.const1()) == graph.const1()
        assert graph.OR(a, a) == a

    def test_xor_identities(self, graph):
        a = graph.add_input("a")
        assert graph.XOR(a, a) == graph.const0()
        assert graph.XOR(a, graph.const0()) == a

    def test_not_of_not_cancels(self, graph):
        a = graph.add_input("a")
        assert graph.NOT(graph.NOT(a)) == a
        assert graph.NOT(graph.const0()) == graph.const1()

    def test_mux_constant_select(self, graph):
        a, b = graph.add_input("a"), graph.add_input("b")
        assert graph.MUX(graph.const1(), a, b) == a
        assert graph.MUX(graph.const0(), a, b) == b
        assert graph.MUX(graph.add_input("s"), a, a) == a


class TestQueries:
    def _small(self):
        g = BOG("q", variant="sog")
        a, b = g.add_input("a"), g.add_input("b")
        r = g.add_register("R[0]")
        x = g.AND(a, b)
        y = g.XOR(x, r)
        g.add_endpoint("R[0]", "R", 0, y, reg_node=r)
        return g, y

    def test_levels_and_depth(self):
        g, y = self._small()
        levels = g.levels()
        assert levels[y] == 2
        assert g.depth() == 2

    def test_topological_order_respects_fanins(self):
        g, _ = self._small()
        order = g.topological_order()
        position = {node: i for i, node in enumerate(order)}
        for node in g.nodes:
            for fanin in node.fanins:
                assert position[fanin] < position[node.id]

    def test_stats_and_type_counts(self):
        g, _ = self._small()
        stats = g.stats()
        assert stats["n_sequential"] == 1
        assert stats["n_endpoints"] == 1
        counts = g.type_counts()
        assert counts["and"] == 1 and counts["xor"] == 1

    def test_validate_passes_on_wellformed_graph(self):
        g, _ = self._small()
        g.validate()

    def test_views_are_read_only(self):
        g, y = self._small()
        with pytest.raises(AttributeError):
            g.nodes[y].fanins = (0, 1)
        with pytest.raises(AttributeError):
            g.endpoints[0].driver = 0
        with pytest.raises(TypeError):
            g.nodes[0] = g.nodes[1]
        assert g.nodes[y].fanins == (g.nodes[y - 1].id, g.sources["R[0]"])


@given(values=st.lists(st.booleans(), min_size=2, max_size=6))
def test_folding_preserves_and_semantics(values):
    """AND chains built through the folding constructor evaluate correctly."""
    from repro.bog.simulate import evaluate_nodes

    g = BOG("prop", variant="sog")
    inputs = [g.add_input(f"i{k}") for k in range(len(values))]
    node = inputs[0]
    for other in inputs[1:]:
        node = g.AND(node, other)
    env = {f"i{k}": int(v) for k, v in enumerate(values)}
    result = evaluate_nodes(g, env)[node]
    assert result == int(all(values))

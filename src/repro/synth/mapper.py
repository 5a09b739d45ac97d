"""Technology mapping: Boolean operator graph -> gate-level netlist.

Stands in for the mapping step of a commercial synthesis tool.  Two effects
matter for the reproduction and are modelled explicitly:

* **Restructuring.**  Chains of identical associative operators (AND/OR/XOR)
  are collapsed and re-emitted as balanced trees, so the mapped netlist's
  logic depth differs systematically from the RTL representation's depth.
  This is the main reason the slowest RTL path is *not* always the slowest
  netlist path — the motivation for the paper's multi-path sampling.
* **Mapping choices.**  Each operator can be implemented by different cells
  (e.g. AND2 vs NAND2+INV); the choice is made pseudo-randomly per instance
  (seeded by the design name) which injects the realistic, structured noise
  that separates RTL-stage prediction from a simple analytical model.

Register endpoints keep their RTL bit names, preserving the RTL/netlist
register consistency the paper's labelling relies on.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

import numpy as np

from repro.bog.graph import BOG, NodeType
from repro.liberty import Library, nangate45_like
from repro.sta.csr import KIND_GATE
from repro.sta.network import TimingEndpoint, VertexKind
from repro.synth.netlist import Netlist


def map_to_netlist(
    bog: BOG,
    library: Optional[Library] = None,
    seed: Optional[int] = None,
    balance_trees: bool = True,
    alt_mapping_probability: Optional[float] = None,
    high_fanout_threshold: int = 6,
) -> Netlist:
    """Map ``bog`` onto standard cells and return the netlist.

    When ``alt_mapping_probability`` is not given, a per-design value is drawn
    from the seeded generator, mirroring the design-to-design variation in
    optimization behaviour that the paper's design-level features exist to
    absorb.
    """
    library = library or nangate45_like()
    if seed is None:
        seed = sum(ord(c) for c in bog.name) * 7919 + len(bog.nodes)
    rng = random.Random(seed)
    if alt_mapping_probability is None:
        alt_mapping_probability = rng.uniform(0.15, 0.6)

    netlist = Netlist(bog.name, library)
    mapper = _Mapper(bog, netlist, library, rng, balance_trees, alt_mapping_probability)
    mapper.run()

    # Pick initial drive strengths: stronger cells on high-fanout nets, and a
    # sprinkling of pre-sized instances elsewhere (as a real mapper leaves
    # behind after its own internal sizing).
    compiled = netlist.compiled()
    n_fanouts = np.diff(compiled.fanout_indptr)
    for vertex in np.flatnonzero(compiled.kind == KIND_GATE).tolist():
        if n_fanouts[vertex] >= high_fanout_threshold:
            netlist.upsize(vertex)
        elif rng.random() < 0.1:
            netlist.upsize(vertex)

    _apply_cone_effort(netlist, rng)

    netlist.validate()
    return netlist


def _apply_cone_effort(netlist: Netlist, rng: random.Random) -> None:
    """Model per-cone logic restructuring as a delay derate on gate delays.

    Commercial synthesis restructures *chain-shaped* logic aggressively —
    ripple-carry adders become carry-lookahead structures, priority chains
    become trees — while logic that is already tree-shaped changes little.
    The compression achievable for a cone is therefore governed by the gap
    between its actual depth and the depth of a balanced implementation
    (roughly ``log2`` of its size), plus cone-to-cone variation in how hard
    the tool worked.

    We capture this as a per-cone delay multiplier applied to every gate in
    the cone: ``derate ~ (k0 + k1*log2(size) + noise) / depth`` clipped to
    ``[0.3, 1.0]``.  A gate shared by several cones takes the strongest
    compression applied to any of them.  The systematic part is learnable
    from the cone/path features RTL-Timer extracts (cone size, level count,
    operator counts); the random part is the irreducible noise that keeps the
    paper's fine-grained correlation well below 1.0.
    """
    depths = netlist.levels()
    kinds = netlist.kinds()
    derate = netlist.attribute_columns().derate
    compiled = netlist.compiled()
    indptr, indices = compiled.fanin_indptr.tolist(), compiled.fanin_indices.tolist()

    # Group endpoints by word-level signal: the input logic of one register
    # bank is optimized together, so all its bits share one effort level.
    drivers_by_signal: Dict[str, List[int]] = {}
    for endpoint in netlist.endpoints:
        drivers_by_signal.setdefault(endpoint.signal, []).append(endpoint.driver)

    for signal in sorted(drivers_by_signal):
        drivers = drivers_by_signal[signal]
        cone = _cone_vertices(indptr, indices, drivers)
        gates = cone[kinds[cone] == KIND_GATE]
        if not gates.size:
            continue
        depth = max(depths[d] for d in drivers)
        if depth <= 1:
            continue
        size = gates.size
        balanced_depth = 2.0 + 2.2 * math.log2(size + 1)
        effort = rng.uniform(0.85, 1.25)
        factor = (balanced_depth * effort) / depth + rng.uniform(-0.06, 0.06)
        factor = max(0.3, min(1.0, factor))
        netlist.set_derate(gates[factor < derate[gates]], factor)


def _cone_vertices(indptr: List[int], indices: List[int], drivers: List[int]) -> np.ndarray:
    """Transitive fanin cone of ``drivers`` (inclusive) over a fanin CSR."""
    seen = set()
    stack = list(drivers)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(indices[indptr[current] : indptr[current + 1]])
    return np.fromiter(seen, dtype=np.int64, count=len(seen))


class _Mapper:
    """Internal mapping state machine."""

    def __init__(
        self,
        bog: BOG,
        netlist: Netlist,
        library: Library,
        rng: random.Random,
        balance_trees: bool,
        alt_mapping_probability: float,
    ):
        self.bog = bog
        self.netlist = netlist
        self.library = library
        self.rng = rng
        self.balance_trees = balance_trees
        self.alt_probability = alt_mapping_probability
        self.mapping: Dict[int, int] = {}
        self.fanout_counts = self._count_fanouts()

    def _count_fanouts(self) -> List[int]:
        counts = [0] * len(self.bog.nodes)
        for node in self.bog.nodes:
            for fanin in node.fanins:
                counts[fanin] += 1
        for endpoint in self.bog.endpoints:
            counts[endpoint.driver] += 1
        return counts

    # -- main ----------------------------------------------------------------

    def run(self) -> None:
        dff = self.library.pick("DFF")
        for node in self.bog.nodes:
            if node.id in self.mapping:
                continue
            if node.type is NodeType.CONST0 or node.type is NodeType.CONST1:
                self.mapping[node.id] = self.netlist.add_vertex(
                    VertexKind.CONST, name=node.type.value
                )
            elif node.type is NodeType.INPUT:
                self.mapping[node.id] = self.netlist.add_vertex(
                    VertexKind.INPUT, name=node.name
                )
            elif node.type is NodeType.REG:
                self.mapping[node.id] = self.netlist.add_vertex(
                    VertexKind.REGISTER, cell=dff, name=node.name
                )
            else:
                self.mapping[node.id] = self._map_operator(node.id)

        for endpoint in self.bog.endpoints:
            self.netlist.add_endpoint(
                TimingEndpoint(
                    name=endpoint.name,
                    signal=endpoint.signal,
                    bit=endpoint.bit,
                    driver=self.mapping[endpoint.driver],
                    kind=endpoint.kind,
                    capture_cell=dff if endpoint.kind == "register" else None,
                )
            )

    # -- operators -----------------------------------------------------------

    def _map_operator(self, node_id: int) -> int:
        node = self.bog.nodes[node_id]
        if node.type in (NodeType.AND, NodeType.OR, NodeType.XOR) and self.balance_trees:
            leaves = self._collect_tree_leaves(node_id, node.type)
            if len(leaves) > 2:
                mapped_leaves = [self._require(leaf) for leaf in leaves]
                return self._emit_balanced_tree(node.type, mapped_leaves)
        fanins = [self._require(f) for f in node.fanins]
        return self._emit_single(node.type, fanins)

    def _require(self, node_id: int) -> int:
        if node_id not in self.mapping:
            self.mapping[node_id] = self._map_operator(node_id)
        return self.mapping[node_id]

    def _collect_tree_leaves(self, root: int, op: NodeType) -> List[int]:
        """Leaves of the maximal single-fanout same-operator tree under ``root``."""
        leaves: List[int] = []

        def walk(node_id: int, is_root: bool) -> None:
            node = self.bog.nodes[node_id]
            same_op = node.type is op
            single_fanout = self.fanout_counts[node_id] <= 1
            if not is_root and (not same_op or not single_fanout):
                leaves.append(node_id)
                return
            if not same_op:
                leaves.append(node_id)
                return
            for fanin in node.fanins:
                walk(fanin, False)

        walk(root, True)
        return leaves

    def _emit_balanced_tree(self, op: NodeType, leaves: List[int]) -> int:
        """Emit a balanced binary tree of 2-input cells over ``leaves``."""
        current = list(leaves)
        self.rng.shuffle(current)
        while len(current) > 1:
            next_level: List[int] = []
            for i in range(0, len(current) - 1, 2):
                next_level.append(self._emit_single(op, [current[i], current[i + 1]]))
            if len(current) % 2 == 1:
                next_level.append(current[-1])
            current = next_level
        return current[0]

    def _emit_single(self, op: NodeType, fanins: List[int]) -> int:
        """Emit the cell(s) implementing one 2-input operator instance."""
        use_alt = self.rng.random() < self.alt_probability
        if op is NodeType.NOT:
            return self._gate("INV", fanins)
        if op is NodeType.AND:
            if use_alt:
                nand = self._gate("NAND2", fanins)
                return self._gate("INV", [nand])
            return self._gate("AND2", fanins)
        if op is NodeType.OR:
            if use_alt:
                nor = self._gate("NOR2", fanins)
                return self._gate("INV", [nor])
            return self._gate("OR2", fanins)
        if op is NodeType.XOR:
            if use_alt:
                xnor = self._gate("XNOR2", fanins)
                return self._gate("INV", [xnor])
            return self._gate("XOR2", fanins)
        if op is NodeType.MUX:
            return self._gate("MUX2", fanins)
        raise ValueError(f"cannot map operator {op}")

    def _gate(self, function: str, fanins: List[int]) -> int:
        cell = self.library.pick(function)
        return self.netlist.add_vertex(VertexKind.GATE, fanins=fanins, cell=cell)

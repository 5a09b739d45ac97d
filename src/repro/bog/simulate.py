"""Functional simulation of Boolean operator graphs.

Used by the test suite to prove that bit-blasting and the SOG -> AIG/AIMG/XAG
transforms preserve functionality: the same source assignment must produce
the same endpoint values in every variant and must agree with the word-level
interpreter in :mod:`repro.hdl.interpret`.

Two evaluators are provided:

* :func:`evaluate_nodes` — scalar reference: one source assignment, one
  Python loop over the (validated) topological order.
* :func:`evaluate_nodes_packed` — uint64 bit-packed batch kernel: up to 64
  random vectors ride in the lanes of one machine word, the graph is swept
  level by level (the same levelization the timing kernels use), and each
  (level, operator) group is evaluated with one numpy bitwise op.  The
  ``packed_vs_scalar_sim`` fuzz oracle holds the two bit-for-bit equal.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.bog.graph import BOG, NodeType
from repro.faults import fault_active

#: Number of stimulus vectors one packed word carries.
PACKED_LANES = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def evaluate_nodes(bog: BOG, source_values: Mapping[str, int]) -> List[int]:
    """Evaluate every node of ``bog`` for one source assignment.

    ``source_values`` maps source bit names (``"in_data0[3]"``, ``"R1[0]"``)
    to 0/1; missing sources default to 0.  Returns a list of node values in
    node-id order.  Iterates :meth:`BOG.topological_order`, which validates
    that node ids actually are a topological order, so a malformed graph
    raises instead of evaluating stale fanin values.
    """
    values: List[int] = [0] * len(bog.nodes)
    nodes = bog.nodes
    for node_id in bog.topological_order():
        node = nodes[node_id]
        if node.type is NodeType.CONST0:
            values[node.id] = 0
        elif node.type is NodeType.CONST1:
            values[node.id] = 1
        elif node.type in (NodeType.INPUT, NodeType.REG):
            values[node.id] = int(bool(source_values.get(node.name or "", 0)))
        elif node.type is NodeType.NOT:
            values[node.id] = 1 - values[node.fanins[0]]
        elif node.type is NodeType.AND:
            values[node.id] = values[node.fanins[0]] & values[node.fanins[1]]
        elif node.type is NodeType.OR:
            values[node.id] = values[node.fanins[0]] | values[node.fanins[1]]
        elif node.type is NodeType.XOR:
            values[node.id] = values[node.fanins[0]] ^ values[node.fanins[1]]
        elif node.type is NodeType.MUX:
            sel, a, b = node.fanins
            values[node.id] = values[a] if values[sel] else values[b]
        else:
            raise ValueError(f"cannot evaluate node type {node.type}")
    return values


def evaluate_endpoints(bog: BOG, source_values: Mapping[str, int]) -> Dict[str, int]:
    """Evaluate the graph and return the value at every endpoint driver."""
    values = evaluate_nodes(bog, source_values)
    return {endpoint.name: values[endpoint.driver] for endpoint in bog.endpoints}


def evaluate_signal_words(
    bog: BOG, source_values: Mapping[str, int]
) -> Dict[str, int]:
    """Evaluate endpoints and re-assemble per-signal integer words.

    Register endpoints named ``R[i]`` are packed back into the word-level
    value of signal ``R`` (bit ``i`` contributes ``2**i``).
    """
    endpoint_values = evaluate_endpoints(bog, source_values)
    words: Dict[str, int] = {}
    for endpoint in bog.endpoints:
        value = endpoint_values[endpoint.name]
        words[endpoint.signal] = words.get(endpoint.signal, 0) | (value << endpoint.bit)
    return words


# ---------------------------------------------------------------------------
# Bit-packed batch evaluation
# ---------------------------------------------------------------------------


def pack_source_vectors(
    vectors: Sequence[Mapping[str, int]]
) -> Dict[str, int]:
    """Pack up to :data:`PACKED_LANES` source assignments into lane words.

    ``vectors[lane]`` is one :func:`evaluate_nodes`-style source assignment;
    bit ``lane`` of the returned word for a source name carries that lane's
    value.  Names missing from a lane default to 0, exactly like the scalar
    evaluator.
    """
    if len(vectors) > PACKED_LANES:
        raise ValueError(
            f"at most {PACKED_LANES} vectors fit one packed word, got {len(vectors)}"
        )
    words: Dict[str, int] = {}
    for lane, vector in enumerate(vectors):
        mask = 1 << lane
        for name, value in vector.items():
            if value & 1:
                words[name] = words.get(name, 0) | mask
    return words


def evaluate_nodes_packed(
    bog: BOG, packed_sources: Mapping[str, int]
) -> np.ndarray:
    """Evaluate all 64 lanes of every node with levelized numpy bitwise ops.

    ``packed_sources`` maps source bit names to uint64 lane words (see
    :func:`pack_source_vectors`); missing sources default to 0 in every
    lane.  Returns a uint64 array of per-node lane words, bit-identical per
    lane to running :func:`evaluate_nodes` on that lane's assignment.

    The graph is swept level by level over the validated topological order —
    the same levelization contract the timing kernels compile — and every
    (level, operator-type) group is evaluated with one vectorized op, so the
    per-vector cost is roughly 1/64th of a scalar numpy sweep.
    """
    bog.topological_order()  # validate: ids must be a topological order
    n = len(bog.nodes)
    values = np.zeros(n, dtype=np.uint64)
    levels = bog.levels()

    groups: Dict[Tuple[int, NodeType], List[Tuple[int, Tuple[int, ...]]]] = {}
    const1_ids: List[int] = []
    source_ids: List[int] = []
    source_words: List[int] = []
    for node in bog.nodes:
        if node.type is NodeType.CONST1:
            const1_ids.append(node.id)
        elif node.type in (NodeType.INPUT, NodeType.REG):
            source_ids.append(node.id)
            source_words.append(packed_sources.get(node.name or "", 0))
        elif node.type is NodeType.CONST0:
            pass  # already zero
        else:
            groups.setdefault((levels[node.id], node.type), []).append(
                (node.id, node.fanins)
            )

    if const1_ids:
        values[const1_ids] = _ALL_ONES
    if source_ids:
        values[source_ids] = np.array(source_words, dtype=np.uint64)

    and_is_or = fault_active("simulate.packed_and")
    for (_, node_type), members in sorted(groups.items(), key=lambda item: item[0][0]):
        ids = np.array([m[0] for m in members], dtype=np.int64)
        f0 = values[np.array([m[1][0] for m in members], dtype=np.int64)]
        if node_type is NodeType.NOT:
            values[ids] = ~f0
            continue
        f1 = values[np.array([m[1][1] for m in members], dtype=np.int64)]
        if node_type is NodeType.AND:
            if and_is_or:
                # Debug fault point: packed AND computed as OR, which the
                # packed_vs_scalar_sim oracle must catch (see repro.faults).
                values[ids] = f0 | f1
            else:
                values[ids] = f0 & f1
        elif node_type is NodeType.OR:
            values[ids] = f0 | f1
        elif node_type is NodeType.XOR:
            values[ids] = f0 ^ f1
        elif node_type is NodeType.MUX:
            f2 = values[np.array([m[1][2] for m in members], dtype=np.int64)]
            values[ids] = (f0 & f1) | (~f0 & f2)
        else:  # pragma: no cover - alphabet is closed by BOG.validate
            raise ValueError(f"cannot evaluate node type {node_type}")
    return values


def unpack_lane(packed_values: np.ndarray, lane: int) -> List[int]:
    """One lane's scalar node values out of a packed evaluation."""
    if not 0 <= lane < PACKED_LANES:
        raise ValueError(f"lane must be in [0, {PACKED_LANES}), got {lane}")
    return ((packed_values >> np.uint64(lane)) & np.uint64(1)).astype(int).tolist()

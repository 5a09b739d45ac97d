"""Boolean operator graph (BOG) data structure.

The BOG is the paper's universal bit-level RTL representation (Section 3.1).
Registers and primary inputs are graph sources; every internal node is a
Boolean operator drawn from a small alphabet, and register *data* inputs and
primary outputs are the timing endpoints.  A BOG can be specialised into the
four concrete variants used by RTL-Timer — SOG, AIG, AIMG and XAG — by
restricting the operator alphabet (see :mod:`repro.bog.transforms`).

The class below is a flat, append-only node store with structural hashing,
constant folding hooks, topological iteration and level computation.  It is
the "pseudo netlist" the paper runs pseudo-STA on, so it purposely looks like
a gate-level netlist: every operator node can be treated as a pseudo standard
cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np


class NodeType(enum.Enum):
    """Node types allowed in a Boolean operator graph."""

    CONST0 = "const0"
    CONST1 = "const1"
    INPUT = "input"  # primary input bit
    REG = "reg"  # register bit (graph source; its data pin is an endpoint)
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    MUX = "mux"  # fanins: (sel, a, b) -> sel ? a : b


#: Operator alphabets of the four BOG variants explored in the paper.
VARIANT_OPERATORS: Dict[str, frozenset] = {
    "sog": frozenset({NodeType.AND, NodeType.OR, NodeType.XOR, NodeType.NOT, NodeType.MUX}),
    "aig": frozenset({NodeType.AND, NodeType.NOT}),
    "aimg": frozenset({NodeType.AND, NodeType.NOT, NodeType.MUX}),
    "xag": frozenset({NodeType.AND, NodeType.XOR, NodeType.NOT}),
}

BOG_VARIANTS: Tuple[str, ...] = ("sog", "aig", "aimg", "xag")

_SOURCE_TYPES = frozenset({NodeType.CONST0, NodeType.CONST1, NodeType.INPUT, NodeType.REG})

#: Integer code of each node type (its declaration index) in :meth:`BOG.fanin_csr`.
NODE_TYPE_CODE: Dict[NodeType, int] = {node_type: code for code, node_type in enumerate(NodeType)}

#: Fanin count each node type code requires (-1: sources, unchecked).
_ARITY = np.array(
    [{NodeType.NOT: 1, NodeType.MUX: 3}.get(t, 2 if t not in _SOURCE_TYPES else -1) for t in NodeType]
)

#: Per variant, whether each node type code may appear (sources always may).
_ALLOWED: Dict[str, np.ndarray] = {
    variant: np.array([t in _SOURCE_TYPES or t in operators for t in NodeType])
    for variant, operators in VARIANT_OPERATORS.items()
}


@dataclass(slots=True)
class Node:
    """A single BOG node."""

    id: int
    type: NodeType
    fanins: Tuple[int, ...] = ()
    name: Optional[str] = None  # set for INPUT / REG bits, e.g. "R1[3]"

    @property
    def is_source(self) -> bool:
        return self.type in _SOURCE_TYPES

    @property
    def is_operator(self) -> bool:
        return not self.is_source

    def __repr__(self) -> str:
        label = f" {self.name}" if self.name else ""
        return f"Node({self.id}, {self.type.value}{label}, fanins={list(self.fanins)})"


@dataclass(slots=True)
class Endpoint:
    """A timing endpoint: a register data pin or a primary output.

    ``driver`` is the node whose output feeds the endpoint.  ``signal`` and
    ``bit`` identify the word-level RTL signal the endpoint belongs to, which
    is how bit-wise predictions are later aggregated back to signal-wise
    endpoints (Section 3.2 of the paper).
    """

    name: str  # e.g. "R1[3]"
    signal: str  # e.g. "R1"
    bit: int
    driver: int  # node id of the endpoint's driving (data) node
    kind: str = "register"  # "register" or "output"
    reg_node: Optional[int] = None  # node id of the register bit (if register)


class BOG:
    """Bit-level Boolean operator graph with structural hashing."""

    def __init__(self, name: str, variant: str = "sog"):
        if variant not in VARIANT_OPERATORS:
            raise ValueError(f"unknown BOG variant {variant!r}")
        self.name = name
        self.variant = variant
        self.nodes: List[Node] = []
        self.endpoints: List[Endpoint] = []
        # name -> node id for INPUT/REG source bits
        self.sources: Dict[str, int] = {}
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None
        self._strash: Dict[Tuple, int] = {}
        self._fanouts: Optional[List[List[int]]] = None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __getstate__(self) -> dict:
        # The fanin CSR is rebuilt from the nodes on demand.
        state = self.__dict__.copy()
        state["_csr"] = None
        return state

    # -- construction --------------------------------------------------------

    def _new_node(self, node_type: NodeType, fanins: Tuple[int, ...] = (), name: Optional[str] = None) -> int:
        node = Node(id=len(self.nodes), type=node_type, fanins=fanins, name=name)
        self.nodes.append(node)
        self._fanouts = None
        self._csr = None
        return node.id

    def const0(self) -> int:
        """Return (creating if needed) the constant-zero node."""
        if self._const0 is None:
            self._const0 = self._new_node(NodeType.CONST0)
        return self._const0

    def const1(self) -> int:
        """Return (creating if needed) the constant-one node."""
        if self._const1 is None:
            self._const1 = self._new_node(NodeType.CONST1)
        return self._const1

    def add_input(self, name: str) -> int:
        """Add a primary-input bit (e.g. ``in_data0[3]``)."""
        if name in self.sources:
            return self.sources[name]
        node_id = self._new_node(NodeType.INPUT, name=name)
        self.sources[name] = node_id
        return node_id

    def add_register(self, name: str) -> int:
        """Add a register bit source node (its data pin is attached later)."""
        if name in self.sources:
            return self.sources[name]
        node_id = self._new_node(NodeType.REG, name=name)
        self.sources[name] = node_id
        return node_id

    def _check_operator(self, node_type: NodeType) -> None:
        allowed = VARIANT_OPERATORS[self.variant]
        if node_type not in allowed:
            raise ValueError(
                f"operator {node_type.value} not allowed in variant {self.variant!r}"
            )

    def add_op(self, node_type: NodeType, *fanins: int) -> int:
        """Add an operator node with constant folding and structural hashing."""
        self._check_operator(node_type)
        folded = self._fold(node_type, fanins)
        if folded is not None:
            return folded
        key = self._hash_key(node_type, fanins)
        existing = self._strash.get(key)
        if existing is not None:
            return existing
        node_id = self._new_node(node_type, tuple(fanins))
        self._strash[key] = node_id
        return node_id

    # Convenience operator constructors -------------------------------------

    def AND(self, a: int, b: int) -> int:
        return self.add_op(NodeType.AND, a, b)

    def OR(self, a: int, b: int) -> int:
        return self.add_op(NodeType.OR, a, b)

    def XOR(self, a: int, b: int) -> int:
        return self.add_op(NodeType.XOR, a, b)

    def NOT(self, a: int) -> int:
        return self.add_op(NodeType.NOT, a)

    def MUX(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b``."""
        return self.add_op(NodeType.MUX, sel, a, b)

    def add_endpoint(
        self,
        name: str,
        signal: str,
        bit: int,
        driver: int,
        kind: str = "register",
        reg_node: Optional[int] = None,
    ) -> Endpoint:
        """Register a timing endpoint fed by node ``driver``."""
        endpoint = Endpoint(
            name=name, signal=signal, bit=bit, driver=driver, kind=kind, reg_node=reg_node
        )
        self.endpoints.append(endpoint)
        return endpoint

    # -- simplification ------------------------------------------------------

    def _fold(self, node_type: NodeType, fanins: Sequence[int]) -> Optional[int]:
        """Constant folding and trivial-identity simplification."""
        c0, c1 = self._const0, self._const1

        def is0(n: int) -> bool:
            return c0 is not None and n == c0

        def is1(n: int) -> bool:
            return c1 is not None and n == c1

        if node_type is NodeType.NOT:
            (a,) = fanins
            if is0(a):
                return self.const1()
            if is1(a):
                return self.const0()
            # NOT(NOT(x)) -> x
            node = self.nodes[a]
            if node.type is NodeType.NOT:
                return node.fanins[0]
            return None

        if node_type is NodeType.AND:
            a, b = fanins
            if is0(a) or is0(b):
                return self.const0()
            if is1(a):
                return b
            if is1(b):
                return a
            if a == b:
                return a
            return None

        if node_type is NodeType.OR:
            a, b = fanins
            if is1(a) or is1(b):
                return self.const1()
            if is0(a):
                return b
            if is0(b):
                return a
            if a == b:
                return a
            return None

        if node_type is NodeType.XOR:
            a, b = fanins
            if a == b:
                return self.const0()
            if is0(a):
                return b
            if is0(b):
                return a
            return None

        if node_type is NodeType.MUX:
            sel, a, b = fanins
            if is1(sel):
                return a
            if is0(sel):
                return b
            if a == b:
                return a
            return None

        return None

    @staticmethod
    def _hash_key(node_type: NodeType, fanins: Sequence[int]) -> Tuple:
        if node_type in (NodeType.AND, NodeType.OR, NodeType.XOR):
            return (node_type, tuple(sorted(fanins)))
        return (node_type, tuple(fanins))

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def register_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.type is NodeType.REG]

    @property
    def input_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.type is NodeType.INPUT]

    @property
    def operator_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.is_operator]

    def fanouts(self) -> List[List[int]]:
        """Fanout adjacency (node id -> list of consumer node ids), cached."""
        if self._fanouts is None:
            fanouts: List[List[int]] = [[] for _ in self.nodes]
            for node in self.nodes:
                for fanin in node.fanins:
                    fanouts[fanin].append(node.id)
            self._fanouts = fanouts
        return self._fanouts

    def endpoint_fanout_counts(self) -> Dict[int, int]:
        """Number of endpoints each node drives directly."""
        counts: Dict[int, int] = {}
        for endpoint in self.endpoints:
            counts[endpoint.driver] = counts.get(endpoint.driver, 0) + 1
        return counts

    def topological_order(self) -> List[int]:
        """Node ids in topological order (sources first), validated.

        The construction order is topological because fanins must exist
        before an operator referencing them can be created — but transforms
        build graphs by hand, so the invariant is *checked* here (O(V+E))
        rather than assumed: a graph whose ids are not a topological order
        raises instead of letting evaluators silently read stale fanin
        values.  Both the scalar and the bit-packed simulators iterate this
        order, and the levelization they share
        (:meth:`levels`) relies on the same invariant.
        """
        for node in self.nodes:
            for fanin in node.fanins:
                if not 0 <= fanin < node.id:
                    raise ValueError(
                        f"node {node.id} has fanin {fanin} that does not precede it; "
                        "node ids are not a topological order"
                    )
        return list(range(len(self.nodes)))

    def levels(self) -> List[int]:
        """Logic level of each node (sources are level 0)."""
        levels = [0] * len(self.nodes)
        for node in self.nodes:
            if node.is_operator and node.fanins:
                levels[node.id] = 1 + max(levels[f] for f in node.fanins)
        return levels

    def depth(self) -> int:
        """Maximum logic level over all endpoint drivers."""
        if not self.endpoints:
            return 0
        levels = self.levels()
        return max(levels[e.driver] for e in self.endpoints)

    def transitive_fanin(self, node_id: int) -> Set[int]:
        """All node ids in the transitive fanin cone of ``node_id`` (inclusive)."""
        seen: Set[int] = set()
        stack = [node_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.nodes[current].fanins)
        return seen

    def driving_registers(self, node_id: int) -> List[int]:
        """Register/input source nodes in the transitive fanin of ``node_id``."""
        cone = self.transitive_fanin(node_id)
        return [n for n in cone if self.nodes[n].type in (NodeType.REG, NodeType.INPUT)]

    def type_counts(self) -> Dict[str, int]:
        """Number of nodes per node type."""
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.type.value] = counts.get(node.type.value, 0) + 1
        return counts

    def stats(self) -> Dict[str, float]:
        """Summary statistics used as design-level features."""
        counts = self.type_counts()
        n_comb = sum(v for k, v in counts.items() if k not in ("input", "reg", "const0", "const1"))
        n_seq = counts.get("reg", 0)
        return {
            "n_nodes": float(len(self.nodes)),
            "n_combinational": float(n_comb),
            "n_sequential": float(n_seq),
            "n_inputs": float(counts.get("input", 0)),
            "n_endpoints": float(len(self.endpoints)),
            "depth": float(self.depth()),
        }

    def fanin_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(type codes, indptr, indices)`` of the nodes, cached until a node is added.

        Type codes index :data:`NODE_TYPE_CODE`; the int32 CSR lists each
        node's fanins in order.  :meth:`validate` rebuilds it, so the lowering
        of a freshly validated graph (:func:`repro.sta.network.from_bog`)
        reuses the checked arrays.
        """
        if self._csr is None:
            from repro.sta.csr import build_fanin_csr

            nodes = self.nodes
            codes = np.fromiter(
                map(NODE_TYPE_CODE.__getitem__, map(attrgetter("type"), nodes)),
                dtype=np.int8,
                count=len(nodes),
            )
            self._csr = (codes, *build_fanin_csr(list(map(attrgetter("fanins"), nodes))))
        return self._csr

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Array tests over :meth:`fanin_csr` find the first offending node;
        :meth:`_node_error` words its first violation.
        """
        self._csr = None
        codes, indptr, indices = self.fanin_csr()
        n_fanins = np.diff(indptr)
        owner = np.repeat(np.arange(len(codes)), n_fanins)
        bad = np.zeros(len(codes), dtype=bool)
        bad[owner[(indices >= owner) | (indices < 0)]] = True
        arity = _ARITY[codes]
        bad |= (arity >= 0) & (n_fanins != arity)
        bad |= ~_ALLOWED[self.variant][codes]
        if bad.any():
            raise ValueError(self._node_error(self.nodes[int(np.argmax(bad))]))
        for endpoint in self.endpoints:
            if endpoint.driver < 0 or endpoint.driver >= len(self.nodes):
                raise ValueError(f"endpoint {endpoint.name} has invalid driver")

    def _node_error(self, node: Node) -> str:
        """The first invariant ``node`` violates, worded for :meth:`validate`."""
        for fanin in node.fanins:
            if fanin >= node.id:
                return f"node {node.id} has fanin {fanin} that does not precede it"
            if fanin < 0:
                return f"node {node.id} has out-of-range fanin {fanin}"
        if node.type is NodeType.NOT and len(node.fanins) != 1:
            return f"NOT node {node.id} must have exactly one fanin"
        if node.type in (NodeType.AND, NodeType.OR, NodeType.XOR) and len(node.fanins) != 2:
            return f"{node.type.value} node {node.id} must have two fanins"
        if node.type is NodeType.MUX and len(node.fanins) != 3:
            return f"MUX node {node.id} must have three fanins"
        return (
            f"node {node.id} of type {node.type.value} is not allowed in "
            f"variant {self.variant!r}"
        )

    def __repr__(self) -> str:
        return (
            f"BOG({self.name!r}, variant={self.variant}, nodes={len(self.nodes)}, "
            f"endpoints={len(self.endpoints)})"
        )

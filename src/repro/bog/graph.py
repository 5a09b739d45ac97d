"""Boolean operator graph (BOG) data structure.

The BOG is the paper's universal bit-level RTL representation (Section 3.1).
Registers and primary inputs are graph sources; every internal node is a
Boolean operator drawn from a small alphabet, and register *data* inputs and
primary outputs are the timing endpoints.  A BOG can be specialised into the
four concrete variants used by RTL-Timer — SOG, AIG, AIMG and XAG — by
restricting the operator alphabet (see :mod:`repro.bog.transforms`).

A BOG is an append-only graph with constant folding and structural hashing,
the "pseudo netlist" the paper runs pseudo-STA on.  Columns are its only
source of truth: int type codes and fanin tuples appended by the op
constructors (or, after unpickling, the int32 fanin CSR), the source map
(which names every source node) and the endpoint rows or columns; pickles
carry the type codes, the fanin CSR, the source names and the endpoint
columns.  Code that walks the graph one node at a time — the synthesis
mapper, the simulators and the fuzz oracles — reads :attr:`BOG.nodes` and
:attr:`BOG.endpoints`, cached tuples of immutable :class:`Node` and
:class:`Endpoint` views rebuilt after any construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import pairwise
from typing import Dict, List, NamedTuple, Optional, Tuple

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

_TYPES = tuple(NodeType)
_CONST0, _CONST1, _INPUT, _REG, _AND, _OR, _XOR, _NOT, _MUX = (
    NODE_TYPE_CODE[t] for t in _TYPES
)
_IS_OPERATOR = tuple(t not in _SOURCE_TYPES for t in _TYPES)
_COMMUTATIVE = (_AND, _OR, _XOR)

#: Fanin count each node type code requires (-1: sources, unchecked).
_ARITY = np.array(
    [{NodeType.NOT: 1, NodeType.MUX: 3}.get(t, 2 if t not in _SOURCE_TYPES else -1) for t in NodeType]
)

#: Per variant, whether each node type code may appear (sources always may).
_ALLOWED: Dict[str, np.ndarray] = {
    variant: np.array([t in _SOURCE_TYPES or t in operators for t in NodeType])
    for variant, operators in VARIANT_OPERATORS.items()
}


def _canonical(array: np.ndarray) -> np.ndarray:
    """``array`` viewed through numpy's shared instance of its dtype.

    An unpickled array holds a dtype instance of its own, which pickle would
    write out again instead of referring back to the one shared by freshly
    built arrays; the view keeps a re-pickle byte-identical to the original.
    """
    return array.view(array.dtype.type)


class Node(NamedTuple):
    """A read-only view of one BOG node."""

    id: int
    type: NodeType
    fanins: Tuple[int, ...] = ()
    name: Optional[str] = None  # set for INPUT / REG bits, e.g. "R1[3]"


class Endpoint(NamedTuple):
    """A read-only view of one timing endpoint: a register data pin or a primary output.

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


@dataclass(slots=True)
class EndpointColumns:
    """A BOG's endpoints as columns (their form at rest and in pickles).

    ``reg_nodes`` holds -1 for an endpoint without a register node.  The
    arrays are shared, not copied: callers must not write to them.
    """

    names: List[str]
    signals: List[str]
    bits: np.ndarray  # int32
    drivers: np.ndarray  # int32
    kinds: List[str]
    reg_nodes: np.ndarray  # int32

    @classmethod
    def from_rows(cls, rows: List[tuple]) -> "EndpointColumns":
        """Columns of ``(name, signal, bit, driver, kind, reg_node)`` rows (``None``: no register node)."""
        names, signals, bits, drivers, kinds, reg_nodes = zip(*rows) if rows else ((),) * 6
        return cls(
            list(names),
            list(signals),
            np.array(bits, dtype=np.int32),
            np.array(drivers, dtype=np.int32),
            list(kinds),
            np.array([-1 if r is None else r for r in reg_nodes], dtype=np.int32),
        )

    def rows(self) -> List[tuple]:
        """One ``(name, signal, bit, driver, kind, reg_node)`` row per endpoint."""
        return [
            (name, signal, bit, driver, kind, None if reg_node < 0 else reg_node)
            for name, signal, bit, driver, kind, reg_node in zip(
                self.names,
                self.signals,
                self.bits.tolist(),
                self.drivers.tolist(),
                self.kinds,
                self.reg_nodes.tolist(),
            )
        ]


class BOG:
    """Bit-level Boolean operator graph with structural hashing.

    The graph is columns.  Nodes are the build lists (``_codes`` /
    ``_fanins``, appended by the op constructors) or, after unpickling, the
    fanin CSR alone; constructing a node on an unpickled graph first rebuilds
    the build lists and the structural hash table from the CSR.  Endpoints
    are rows appended by :meth:`add_endpoint` or, at rest, an
    :class:`EndpointColumns`.  :attr:`nodes` and :attr:`endpoints` are
    read-only views of the columns.
    """

    def __init__(self, name: str, variant: str = "sog"):
        if variant not in VARIANT_OPERATORS:
            raise ValueError(f"unknown BOG variant {variant!r}")
        self.name = name
        self.variant = variant
        # name -> node id for INPUT/REG source bits; also the names column.
        self.sources: Dict[str, int] = {}
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None
        self._allowed: Tuple[bool, ...] = tuple(_ALLOWED[variant].tolist())
        self._codes: Optional[List[int]] = []
        self._fanins: Optional[List[Tuple[int, ...]]] = []
        self._strash: Optional[Dict[Tuple[int, ...], int]] = {}
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._endpoint_rows: Optional[List[tuple]] = []
        self._endpoint_columns: Optional[EndpointColumns] = None
        # The read-only views, dropped whenever the columns grow.
        self._nodes: Optional[Tuple[Node, ...]] = None
        self._endpoints: Optional[Tuple[Endpoint, ...]] = None

    def __getstate__(self) -> dict:
        # Pickles carry columns only: never the views or the strash table.
        sources = self.sources
        return {
            "name": self.name,
            "variant": self.variant,
            "fanin_csr": self.fanin_csr(),
            "source_names": list(sources),
            "source_ids": np.fromiter(sources.values(), dtype=np.int32, count=len(sources)),
            "endpoints": self.endpoint_columns(),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["name"], state["variant"])
        self._codes = self._fanins = self._strash = None
        self._csr = tuple(map(_canonical, state["fanin_csr"]))
        self.sources = dict(zip(state["source_names"], state["source_ids"].tolist()))
        # const0()/const1() memoize the first node of each constant type.
        constants = (np.flatnonzero(self._csr[0] == code) for code in (_CONST0, _CONST1))
        self._const0, self._const1 = (int(ids[0]) if ids.size else None for ids in constants)
        endpoints = state["endpoints"]
        for column in ("bits", "drivers", "reg_nodes"):
            setattr(endpoints, column, _canonical(getattr(endpoints, column)))
        self.set_endpoint_columns(endpoints)

    # -- representations -----------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """Read-only :class:`Node` views of the nodes, cached until a node is added."""
        if self._nodes is None:
            codes, fanins = self._rows()
            self._nodes = tuple(
                Node(node_id, _TYPES[code], node_fanins, name)
                for node_id, (code, node_fanins, name) in enumerate(
                    zip(codes, fanins, self.node_names())
                )
            )
        return self._nodes

    def _rows(self) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """Type codes and fanin tuples of the nodes: the build lists, else read off the CSR."""
        if self._codes is not None:
            return self._codes, self._fanins
        codes, indptr, indices = self._csr
        flat = indices.tolist()
        return codes.tolist(), [tuple(flat[lo:hi]) for lo, hi in pairwise(indptr.tolist())]

    def fanin_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(type codes, indptr, indices)`` of the nodes.

        Type codes index :data:`NODE_TYPE_CODE`; the int32 CSR lists each
        node's fanins in order.  The arrays are cached until a node is
        added, so the lowering of a freshly validated graph
        (:func:`repro.sta.network.from_bog`) reuses the checked arrays.
        """
        if self._csr is None:
            from repro.sta.csr import build_fanin_csr

            self._csr = (np.array(self._codes, dtype=np.int8), *build_fanin_csr(self._fanins))
        return self._csr

    def node_names(self) -> List[Optional[str]]:
        """Name of each node: the source bit name, ``None`` for the rest."""
        names: List[Optional[str]] = [None] * len(self)
        for name, node_id in self.sources.items():
            names[node_id] = name
        return names

    @property
    def endpoints(self) -> Tuple[Endpoint, ...]:
        """Read-only :class:`Endpoint` views of the endpoints, cached until one is added."""
        if self._endpoints is None:
            self._endpoints = tuple(map(Endpoint._make, self.endpoint_columns().rows()))
        return self._endpoints

    def endpoint_columns(self) -> EndpointColumns:
        """The endpoints as columns, gathered from the appended rows once they are needed."""
        if self._endpoint_columns is None:
            self._endpoint_columns = EndpointColumns.from_rows(self._endpoint_rows)
        return self._endpoint_columns

    def set_endpoint_columns(self, columns: EndpointColumns) -> None:
        """Replace the endpoints with ``columns`` (the graph holds them at rest)."""
        self._endpoint_rows = None
        self._endpoint_columns = columns
        self._endpoints = None

    # -- construction --------------------------------------------------------

    def _editable(self) -> Dict[Tuple[int, ...], int]:
        """Rebuild the build lists and the strash table from the CSR; return the table."""
        self._codes, self._fanins = codes, fanins = self._rows()
        strash: Dict[Tuple[int, ...], int] = {}
        for node_id, (code, node_fanins) in enumerate(zip(codes, fanins)):
            if _IS_OPERATOR[code]:
                key = tuple(sorted(node_fanins)) if code in _COMMUTATIVE else node_fanins
                strash.setdefault((code, *key), node_id)
        self._strash = strash
        return strash

    def _append(self, code: int, fanins: Tuple[int, ...] = ()) -> int:
        if self._codes is None:
            self._editable()
        self._codes.append(code)
        self._fanins.append(fanins)
        self._csr = self._nodes = None
        return len(self._codes) - 1

    def _hashed(self, key: Tuple[int, ...], fanins: Tuple[int, ...]) -> int:
        """The node of structural-hash ``key`` (code first), appended with ``fanins`` if new."""
        strash = self._strash
        if strash is None:
            strash = self._editable()
        node_id = strash.get(key)
        if node_id is None:
            codes = self._codes  # present whenever the strash table is
            node_id = strash[key] = len(codes)
            codes.append(key[0])
            self._fanins.append(fanins)
            self._csr = self._nodes = None
        return node_id

    def _not_allowed(self, code: int) -> ValueError:
        return ValueError(
            f"operator {_TYPES[code].value} not allowed in variant {self.variant!r}"
        )

    def const0(self) -> int:
        """Return (creating if needed) the constant-zero node."""
        if self._const0 is None:
            self._const0 = self._append(_CONST0)
        return self._const0

    def const1(self) -> int:
        """Return (creating if needed) the constant-one node."""
        if self._const1 is None:
            self._const1 = self._append(_CONST1)
        return self._const1

    def add_input(self, name: str) -> int:
        """Add a primary-input bit (e.g. ``in_data0[3]``)."""
        node_id = self.sources.get(name)
        if node_id is None:
            node_id = self.sources[name] = self._append(_INPUT)
        return node_id

    def add_register(self, name: str) -> int:
        """Add a register bit source node (its data pin is attached later)."""
        node_id = self.sources.get(name)
        if node_id is None:
            node_id = self.sources[name] = self._append(_REG)
        return node_id

    # Operator constructors: alphabet check, constant folding and trivial
    # identities, then structural hashing (commutative fanins sorted in the
    # key; the node keeps them in call order).

    def AND(self, a: int, b: int) -> int:
        if not self._allowed[_AND]:
            raise self._not_allowed(_AND)
        c0, c1 = self._const0, self._const1
        if a == c0 or b == c0:
            return c0
        if a == c1 or a == b:
            return b
        if b == c1:
            return a
        return self._hashed((_AND, a, b) if a < b else (_AND, b, a), (a, b))

    def OR(self, a: int, b: int) -> int:
        if not self._allowed[_OR]:
            raise self._not_allowed(_OR)
        c0, c1 = self._const0, self._const1
        if a == c1 or b == c1:
            return c1
        if a == c0 or a == b:
            return b
        if b == c0:
            return a
        return self._hashed((_OR, a, b) if a < b else (_OR, b, a), (a, b))

    def XOR(self, a: int, b: int) -> int:
        if not self._allowed[_XOR]:
            raise self._not_allowed(_XOR)
        if a == b:
            return self.const0()
        c0 = self._const0
        if a == c0:
            return b
        if b == c0:
            return a
        return self._hashed((_XOR, a, b) if a < b else (_XOR, b, a), (a, b))

    def NOT(self, a: int) -> int:
        if not self._allowed[_NOT]:
            raise self._not_allowed(_NOT)
        if a == self._const0:
            return self.const1()
        if a == self._const1:
            return self.const0()
        if self._codes is None:
            self._editable()
        if self._codes[a] == _NOT:  # NOT(NOT(x)) -> x
            return self._fanins[a][0]
        return self._hashed((_NOT, a), (a,))

    def MUX(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b``."""
        if not self._allowed[_MUX]:
            raise self._not_allowed(_MUX)
        if sel == self._const1 or a == b:
            return a
        if sel == self._const0:
            return b
        return self._hashed((_MUX, sel, a, b), (sel, a, b))

    def add_endpoint(
        self,
        name: str,
        signal: str,
        bit: int,
        driver: int,
        kind: str = "register",
        reg_node: Optional[int] = None,
    ) -> None:
        """Register a timing endpoint fed by node ``driver``."""
        if self._endpoint_rows is None:
            self._endpoint_rows = self._endpoint_columns.rows()
        # A row keeps an explicit reg_node of -1 apart from None, so that
        # validate() reports it; the columns write both as -1.
        self._endpoint_rows.append((name, signal, bit, driver, kind, reg_node))
        self._endpoint_columns = self._endpoints = None

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._codes) if self._codes is not None else len(self._csr[0])

    def topological_order(self) -> List[int]:
        """Node ids in topological order (sources first), validated.

        The construction order is topological because fanins must exist
        before an operator referencing them can be created — but a graph
        unpickled from untrusted bytes need not have been constructed, so
        the invariant is *checked* here rather than assumed: a graph whose
        ids are not a topological order raises instead of letting
        evaluators silently read stale fanin values.  Both the scalar and
        the bit-packed simulators iterate this order, and the levelization
        they share (:meth:`levels`) relies on the same invariant.
        """
        _, indptr, indices = self.fanin_csr()
        owner = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        bad = (indices >= owner) | (indices < 0)
        if bad.any():
            position = int(np.argmax(bad))
            raise ValueError(
                f"node {int(owner[position])} has fanin {int(indices[position])} that "
                "does not precede it; node ids are not a topological order"
            )
        return list(range(len(indptr) - 1))

    def levels(self) -> List[int]:
        """Logic level of each node (sources are level 0)."""
        codes, fanins = self._rows()
        levels = [0] * len(codes)
        for node_id, (code, node_fanins) in enumerate(zip(codes, fanins)):
            if _IS_OPERATOR[code] and node_fanins:
                levels[node_id] = 1 + max(map(levels.__getitem__, node_fanins))
        return levels

    def depth(self) -> int:
        """Maximum logic level over all endpoint drivers."""
        drivers = self.endpoint_columns().drivers.tolist()
        if not drivers:
            return 0
        levels = self.levels()
        return max(levels[driver] for driver in drivers)

    def type_counts(self) -> Dict[str, int]:
        """Number of nodes per node type."""
        counts = np.bincount(self.fanin_csr()[0], minlength=len(_TYPES)).tolist()
        return {t.value: count for t, count in zip(_TYPES, counts) if count}

    def stats(self) -> Dict[str, float]:
        """Summary statistics used as design-level features."""
        counts = self.type_counts()
        n_comb = sum(v for k, v in counts.items() if k not in ("input", "reg", "const0", "const1"))
        n_seq = counts.get("reg", 0)
        return {
            "n_nodes": float(len(self)),
            "n_combinational": float(n_comb),
            "n_sequential": float(n_seq),
            "n_inputs": float(counts.get("input", 0)),
            "n_endpoints": float(len(self.endpoint_columns().names)),
            "depth": float(self.depth()),
        }

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Array tests over :meth:`fanin_csr` find the first offending node
        (:meth:`_node_error` words its first violation), then the first
        endpoint whose driver is not a node or whose register node is not a
        REG node.
        """
        codes, indptr, indices = self.fanin_csr()
        n = len(codes)
        n_fanins = np.diff(indptr)
        owner = np.repeat(np.arange(n), n_fanins)
        bad = np.zeros(n, dtype=bool)
        bad[owner[(indices >= owner) | (indices < 0)]] = True
        arity = _ARITY[codes]
        bad |= (arity >= 0) & (n_fanins != arity)
        bad |= ~_ALLOWED[self.variant][codes]
        if bad.any():
            raise ValueError(self._node_error(int(np.argmax(bad))))

        endpoints = self.endpoint_columns()
        drivers, reg_nodes = endpoints.drivers, endpoints.reg_nodes
        rows = self._endpoint_rows
        if rows is None:
            has_reg = reg_nodes != -1
        else:
            has_reg = np.array([row[5] is not None for row in rows], dtype=bool)
        in_range = (reg_nodes >= 0) & (reg_nodes < n)
        is_reg = np.zeros(len(reg_nodes), dtype=bool)
        is_reg[in_range] = codes[reg_nodes[in_range]] == _REG
        bad_driver = (drivers < 0) | (drivers >= n)
        bad_endpoint = bad_driver | (has_reg & ~is_reg)
        if bad_endpoint.any():
            first = int(np.argmax(bad_endpoint))
            name = endpoints.names[first]
            if bad_driver[first]:
                raise ValueError(f"endpoint {name} has invalid driver")
            raise ValueError(f"endpoint {name} has invalid reg_node {int(reg_nodes[first])}")

    def _node_error(self, node_id: int) -> str:
        """The first invariant node ``node_id`` violates, worded for :meth:`validate`."""
        codes, indptr, indices = self.fanin_csr()
        node_type = _TYPES[int(codes[node_id])]
        fanins = indices[indptr[node_id] : indptr[node_id + 1]].tolist()
        for fanin in fanins:
            if fanin >= node_id:
                return f"node {node_id} has fanin {fanin} that does not precede it"
            if fanin < 0:
                return f"node {node_id} has out-of-range fanin {fanin}"
        if node_type is NodeType.NOT and len(fanins) != 1:
            return f"NOT node {node_id} must have exactly one fanin"
        if node_type in (NodeType.AND, NodeType.OR, NodeType.XOR) and len(fanins) != 2:
            return f"{node_type.value} node {node_id} must have two fanins"
        if node_type is NodeType.MUX and len(fanins) != 3:
            return f"MUX node {node_id} must have three fanins"
        return (
            f"node {node_id} of type {node_type.value} is not allowed in "
            f"variant {self.variant!r}"
        )

    def __repr__(self) -> str:
        return (
            f"BOG({self.name!r}, variant={self.variant}, nodes={len(self)}, "
            f"endpoints={len(self.endpoint_columns().names)})"
        )

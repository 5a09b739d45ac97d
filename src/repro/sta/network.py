"""Generic timing network: the structure the STA engine analyzes.

Both the BOG "pseudo netlist" (via :func:`from_bog`) and the synthesized
gate-level netlist (:class:`repro.synth.netlist.Netlist`, a subclass) are
this representation, so a single STA engine serves the whole flow — exactly
the role PrimeTime plays in the paper, plus the pseudo-STA the paper runs
directly on the RTL representation.

At rest a network is :class:`NetworkColumns`: kind codes, a fanin CSR, a
cell table with one row index per vertex, and the ``derate`` /
``extra_load`` / name columns.  :func:`from_bog` lowers a BOG straight to
them, pickles carry them, and every inference reader (the STA kernel, path
sampling, features) reads them through :meth:`TimingNetwork.compiled` and
:meth:`TimingNetwork.attribute_columns`.  Code that edits a network — the
synthesis mapper and optimizer, incremental patches, placement, the
reference kernel and the oracles — reads :attr:`TimingNetwork.vertices`,
which builds :class:`TimingVertex` objects once; from then on the objects
are the source of truth and are gathered back into columns on demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bog.graph import BOG, NODE_TYPE_CODE, NodeType
from repro.liberty import Cell, Library, PSEUDO_FUNCTION_OF_NODE, pseudo_library
from repro.sta.csr import (
    KIND_CONST,
    KIND_GATE,
    KIND_INPUT,
    KIND_REGISTER,
    AttributeColumns,
    CSRTimingGraph,
    build_fanin_csr,
    cell_table,
)


class VertexKind(enum.Enum):
    """Role of a vertex in the timing graph."""

    CONST = "const"
    INPUT = "input"  # primary input (launch point)
    REGISTER = "register"  # register output (launch point)
    GATE = "gate"  # combinational cell


#: Kind code of each :class:`VertexKind` (``repro.sta.csr.KIND_*``), and back.
_KIND_CODE: Dict[VertexKind, int] = {kind: code for code, kind in enumerate(VertexKind)}
_KIND_OF_CODE = tuple(VertexKind)


@dataclass(slots=True)
class TimingVertex:
    """One vertex of the timing graph."""

    id: int
    kind: VertexKind
    fanins: List[int] = field(default_factory=list)
    cell: Optional[Cell] = None
    name: Optional[str] = None
    extra_load: float = 0.0  # wire load added by placement (fF)
    derate: float = 1.0  # delay multiplier capturing local optimization effort

    @property
    def is_launch_point(self) -> bool:
        return self.kind in (VertexKind.INPUT, VertexKind.REGISTER)


@dataclass(slots=True)
class TimingEndpoint:
    """A timing endpoint: register data pin or primary output pin."""

    name: str  # bit-level name, e.g. "R1[3]"
    signal: str  # word-level signal, e.g. "R1"
    bit: int
    driver: int  # vertex id driving the endpoint
    kind: str = "register"  # "register" or "output"
    capture_cell: Optional[Cell] = None  # DFF capturing the data (for setup/cap)

    @property
    def setup_time(self) -> float:
        return self.capture_cell.setup_time if self.capture_cell else 0.0

    @property
    def pin_capacitance(self) -> float:
        return self.capture_cell.input_cap if self.capture_cell else 1.0


@dataclass(slots=True)
class NetworkColumns:
    """A timing network's vertices as columns (its form at rest and in pickles).

    ``cells`` lists the distinct cells in first-use order with ``None`` at
    row 0, and ``cell_row`` indexes it per vertex.  The arrays are shared,
    not copied: callers must not write to them.
    """

    kind: np.ndarray  # int8 kind codes
    fanin_indptr: np.ndarray  # int32
    fanin_indices: np.ndarray  # int32
    cells: List[Optional[Cell]]
    cell_row: np.ndarray  # int32
    derate: np.ndarray  # float64
    extra_load: np.ndarray  # float64
    names: List[Optional[str]]

    @classmethod
    def gather(cls, vertices: Sequence[TimingVertex]) -> "NetworkColumns":
        """The columns of ``vertices``' current structure and values."""
        kind, indptr, indices = _gather_structure(vertices)
        attributes = AttributeColumns.gather(vertices)
        return cls(
            kind,
            indptr,
            indices,
            attributes.cells,
            attributes.cell_row,
            attributes.derate,
            attributes.extra_load,
            [v.name for v in vertices],
        )

    def vertices(self) -> List[TimingVertex]:
        """One :class:`TimingVertex` per row."""
        ptr = self.fanin_indptr.tolist()
        indices = self.fanin_indices.tolist()
        kinds = [_KIND_OF_CODE[code] for code in self.kind.tolist()]
        cells = [self.cells[row] for row in self.cell_row.tolist()]
        return [
            TimingVertex(
                id=i,
                kind=kinds[i],
                fanins=indices[ptr[i] : ptr[i + 1]],
                cell=cells[i],
                name=name,
                extra_load=extra_load,
                derate=derate,
            )
            for i, (name, extra_load, derate) in enumerate(
                zip(self.names, self.extra_load.tolist(), self.derate.tolist())
            )
        ]


def _gather_structure(vertices: Sequence[TimingVertex]):
    """``(kind codes, fanin indptr, fanin indices)`` of ``vertices``."""
    kind = np.fromiter(
        (_KIND_CODE[v.kind] for v in vertices), dtype=np.int8, count=len(vertices)
    )
    return (kind, *build_fanin_csr([v.fanins for v in vertices]))


class TimingNetwork:
    """A flat timing graph, held as columns until code asks for its vertices."""

    def __init__(self, name: str, columns: Optional[NetworkColumns] = None):
        """An empty network to build vertex by vertex, or one at rest over ``columns``."""
        self.name = name
        self.endpoints: List[TimingEndpoint] = []
        # Exactly one of the two is set: the columns at rest, or the vertex
        # objects once something has asked for them.
        self._columns = columns
        self._vertices: Optional[List[TimingVertex]] = [] if columns is None else None
        self._fanouts: Optional[List[List[int]]] = None
        self._topo: Optional[List[int]] = None
        self._csr: Optional[CSRTimingGraph] = None

    def __getstate__(self) -> dict:
        # Pickles carry the columns, never vertex objects.  The compiled CSR
        # view (and the thin views derived from it) is a pure function of the
        # structure, rebuilt lazily on demand; dropping it keeps record
        # fingerprints independent of whether an analysis has run yet.
        state = self.__dict__.copy()
        state["_columns"] = self.columns()
        state["_vertices"] = None
        state["_fanouts"] = None
        state["_topo"] = None
        state["_csr"] = None
        return state

    # -- representations -----------------------------------------------------

    @property
    def vertices(self) -> List[TimingVertex]:
        """The vertex objects, built from the columns on first access.

        From then on they are the source of truth: edits to them (and
        ``add_vertex``) are what :meth:`columns` and :meth:`compiled` see.
        """
        if self._vertices is None:
            self._vertices = self._columns.vertices()
            self._columns = None
        return self._vertices

    def columns(self) -> NetworkColumns:
        """The network as columns: its own at rest, else gathered from the vertices."""
        if self._vertices is None:
            return self._columns
        return NetworkColumns.gather(self._vertices)

    def attribute_columns(self) -> AttributeColumns:
        """Fresh, writable attribute columns of the current values."""
        if self._vertices is None:
            columns = self._columns
            return AttributeColumns(
                list(columns.cells),
                columns.cell_row.copy(),
                columns.derate.copy(),
                columns.extra_load.copy(),
            )
        return AttributeColumns.gather(self._vertices)

    # -- construction --------------------------------------------------------

    def add_vertex(
        self,
        kind: VertexKind,
        fanins: Optional[List[int]] = None,
        cell: Optional[Cell] = None,
        name: Optional[str] = None,
    ) -> int:
        vertices = self.vertices
        vertex = TimingVertex(
            id=len(vertices),
            kind=kind,
            fanins=list(fanins or []),
            cell=cell,
            name=name,
        )
        vertices.append(vertex)
        self.invalidate()
        return vertex.id

    def add_endpoint(self, endpoint: TimingEndpoint) -> None:
        self.endpoints.append(endpoint)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        if self._vertices is None:
            return len(self._columns.kind)
        return len(self._vertices)

    def compiled(self) -> CSRTimingGraph:
        """The compiled CSR/levelized view of the current structure, cached.

        Compilation is lazy: the first structural query after a change
        (``add_vertex`` or :meth:`invalidate`) rebuilds it; value edits
        (``derate``, ``extra_load``, cell swaps) do not require one because
        attribute columns are gathered separately per analysis.  Raises
        ``ValueError`` on an out-of-range fanin or a combinational cycle.
        """
        if self._csr is None:
            if self._vertices is None:
                columns = self._columns
                structure = (columns.kind, columns.fanin_indptr, columns.fanin_indices)
            else:
                structure = _gather_structure(self._vertices)
            self._csr = CSRTimingGraph(self.name, *structure)
        return self._csr

    def fanouts(self) -> List[List[int]]:
        """Fanout adjacency (thin view over the compiled CSR arrays), cached."""
        if self._fanouts is None:
            self._fanouts = self.compiled().fanout_lists()
        return self._fanouts

    def invalidate(self) -> None:
        """Drop cached adjacency after a structural edit (retiming, rewiring)."""
        self._fanouts = None
        self._topo = None
        self._csr = None

    def topological_order(self) -> List[int]:
        """Vertex ids in topological order (thin view over the compiled graph).

        Structural edits such as retiming may append vertices whose ids are
        larger than their consumers', so the id order is not necessarily
        topological; this method returns the compiled levelized order.

        Determinism contract: the order is *level-major* — vertices sorted by
        logic level (``level = 1 + max fanin level``), ascending id within a
        level.  It is therefore a pure function of the graph structure:
        recompiling after :meth:`invalidate` (or rebuilding an identical
        network) reproduces the identical order, independent of insertion
        history.  Historically this method used a LIFO Kahn worklist whose
        order depended on insertion details; every consumer is an
        order-insensitive topological DP, but the compiled order is the one
        now guaranteed stable.
        """
        if self._topo is None:
            self._topo = self.compiled().topological_list()
        return self._topo

    def levels(self) -> List[int]:
        """Logic level of each vertex (sources at level 0)."""
        return self.compiled().level.tolist()

    def launch_points(self) -> List[TimingVertex]:
        return [v for v in self.vertices if v.is_launch_point]

    def _kinds(self) -> np.ndarray:
        if self._csr is not None:
            return self._csr.kind
        if self._vertices is None:
            return self._columns.kind
        return _gather_structure(self._vertices)[0]

    def gate_count(self) -> int:
        return int(np.count_nonzero(self._kinds() == KIND_GATE))

    def register_count(self) -> int:
        return int(np.count_nonzero(self._kinds() == KIND_REGISTER))

    def validate(self) -> None:
        """Check fanin ranges, acyclicity, gate cells and endpoint drivers.

        Checks run in that order as array tests; each raises ``ValueError``
        naming its first offending vertex or endpoint.
        """
        compiled = self.compiled()  # raises on out-of-range fanins, then cycles
        missing = (compiled.kind == KIND_GATE) & (self.attribute_columns().cell_row == 0)
        if missing.any():
            raise ValueError(f"gate vertex {int(np.argmax(missing))} has no cell")
        n = len(self)
        for endpoint in self.endpoints:
            if endpoint.driver < 0 or endpoint.driver >= n:
                raise ValueError(f"endpoint {endpoint.name} has an invalid driver")

    def __repr__(self) -> str:
        return (
            f"TimingNetwork({self.name!r}, vertices={len(self)}, "
            f"endpoints={len(self.endpoints)})"
        )


# ---------------------------------------------------------------------------
# BOG adapter (pseudo netlist)
# ---------------------------------------------------------------------------

_NODE_TYPES = tuple(NodeType)

#: Pseudo-cell function of each BOG node type code (``None``: no cell).
_PSEUDO_FUNCTION = [PSEUDO_FUNCTION_OF_NODE.get(node_type.value) for node_type in _NODE_TYPES]

#: Vertex kind code of each BOG node type code.
_KIND_OF_NODE_TYPE = np.array(
    [
        {
            NodeType.CONST0: KIND_CONST,
            NodeType.CONST1: KIND_CONST,
            NodeType.INPUT: KIND_INPUT,
            NodeType.REG: KIND_REGISTER,
        }.get(node_type, KIND_GATE)
        for node_type in _NODE_TYPES
    ],
    dtype=np.int8,
)


def from_bog(bog: BOG, library: Optional[Library] = None) -> TimingNetwork:
    """Lower a BOG into a timing network using pseudo standard cells.

    Vertex ``i`` is node ``i``, so the lowering is array passes over the
    BOG's cached fanin CSR, names and endpoint columns: each pseudo cell is
    resolved once per node type, and neither BOG node views nor vertex
    objects are built.
    """
    library = library or pseudo_library()
    reg_cell = library.pick("REG")
    codes, indptr, indices = bog.fanin_csr()
    n = len(codes)

    # One pseudo cell per node type present, in the order the types first occur.
    present, first = np.unique(codes, return_index=True)
    present = present[np.argsort(first, kind="stable")]
    functions = [_PSEUDO_FUNCTION[code] for code in present.tolist()]
    cells, rows = cell_table([library.pick(f) if f else None for f in functions])
    row_of_type = np.zeros(len(_NODE_TYPES), dtype=np.int32)
    row_of_type[present] = rows

    names = bog.node_names()
    for node_type in (NodeType.CONST0, NodeType.CONST1):
        for vertex in np.flatnonzero(codes == NODE_TYPE_CODE[node_type]).tolist():
            names[vertex] = node_type.value

    columns = NetworkColumns(
        kind=_KIND_OF_NODE_TYPE[codes],
        fanin_indptr=indptr,
        fanin_indices=indices,
        cells=cells,
        cell_row=row_of_type[codes],
        derate=np.ones(n),
        extra_load=np.zeros(n),
        names=names,
    )
    bog_endpoints = bog.endpoint_columns()
    endpoints = [
        TimingEndpoint(
            name=name,
            signal=signal,
            bit=bit,
            driver=driver,
            kind=kind,
            capture_cell=reg_cell if kind == "register" else None,
        )
        for name, signal, bit, driver, kind in zip(
            bog_endpoints.names,
            bog_endpoints.signals,
            bog_endpoints.bits.tolist(),
            bog_endpoints.drivers.tolist(),
            bog_endpoints.kinds,
        )
    ]
    network = TimingNetwork(f"{bog.name}.{bog.variant}", columns)
    network.endpoints = endpoints
    network.validate()
    return network

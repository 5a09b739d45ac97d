"""Generic timing network: the structure the STA engine analyzes.

Both the BOG "pseudo netlist" (via :func:`from_bog`) and the synthesized
gate-level netlist (:class:`repro.synth.netlist.Netlist`, a subclass) are
this representation, so a single STA engine serves the whole flow — exactly
the role PrimeTime plays in the paper, plus the pseudo-STA the paper runs
directly on the RTL representation.

Columns are a network's only source of truth: kind codes, a fanin CSR, a
cell table with one row index per vertex, and the ``derate`` /
``extra_load`` / name columns.  :func:`from_bog` lowers a
BOG straight to them, :meth:`TimingNetwork.add_vertex` appends build rows
that are frozen into the arrays on the first query, and pickles carry them
as :class:`NetworkColumns`.  Every editor — the synthesis mapper and
optimizer, placement — changes a network only through its writers
(:meth:`~TimingNetwork.set_cell`, :meth:`~TimingNetwork.set_derate`,
:meth:`~TimingNetwork.set_extra_load`, :meth:`~TimingNetwork.set_fanins`,
:meth:`~TimingNetwork.add_vertex`; what-if patches write an
:meth:`~AttributeColumns.overridden` copy instead), and every kernel reads
:meth:`~TimingNetwork.compiled` and an :class:`AttributeColumns` view
(:meth:`~TimingNetwork.attribute_columns`).  :attr:`TimingNetwork.vertices`
is a cached tuple of immutable :class:`TimingVertex` views for the
reference kernels, the fuzz oracles and the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.bog.graph import BOG, NODE_TYPE_CODE, NodeType
from repro.liberty import Cell, Library, PSEUDO_FUNCTION_OF_NODE, pseudo_library
from repro.sta.csr import (
    KIND_CONST,
    KIND_GATE,
    KIND_INPUT,
    KIND_REGISTER,
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


class TimingVertex(NamedTuple):
    """A read-only view of one vertex of the timing graph."""

    id: int
    kind: VertexKind
    fanins: Tuple[int, ...] = ()
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
    """A timing network's vertices as columns (its form in pickles).

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


class AttributeColumns:
    """A view of a network's per-vertex attribute columns, as the kernels read them.

    Cells are a small table of distinct cells plus a per-vertex row index
    (row 0 = no cell, all parameters zero).  The view shares the network's
    arrays (:meth:`overridden` copies them); its per-vertex parameter columns
    are derived on first use and live as long as the view, so take a new
    view after an edit.
    """

    __slots__ = ("cells", "cell_row", "derate", "extra_load", "_params", "_rows")

    def __init__(
        self,
        cells: List[Optional[Cell]],
        cell_row: np.ndarray,
        derate: np.ndarray,
        extra_load: np.ndarray,
    ):
        #: The distinct cells, indexed by ``cell_row`` (row 0 is ``None``).
        self.cells = cells
        self.cell_row = cell_row
        self.derate = derate
        self.extra_load = extra_load
        self._params: Dict[str, np.ndarray] = {}
        self._rows: Optional[Dict[int, int]] = None  # id(cell) -> row, in an overridden copy only

    def param(self, name: str) -> np.ndarray:
        """Per-vertex cell parameter column (0.0 where the vertex has no cell)."""
        column = self._params.get(name)
        if column is None:
            table = np.array(
                [0.0] + [getattr(cell, name) for cell in self.cells[1:]], dtype=np.float64
            )
            column = self._params[name] = table[self.cell_row]
        return column

    def has_cell(self) -> np.ndarray:
        return self.cell_row != 0

    def overridden(self, patches: Iterable) -> "AttributeColumns":
        """Copies of these columns with ``patches`` (:mod:`repro.incremental.patches`)
        written in order through their ``write(cols)``: a what-if candidate, as the
        timing kernels read it, with its network and this view untouched."""
        cols = AttributeColumns(
            list(self.cells), self.cell_row.copy(), self.derate.copy(), self.extra_load.copy()
        )
        cols._rows = {id(cell): row for row, cell in enumerate(cols.cells)}
        for patch in patches:
            patch.write(cols)
        return cols

    def set_cell(self, vertex: int, cell: Cell) -> None:
        """Make ``cell`` implement ``vertex`` in an :meth:`overridden` copy (a new cell gets a row)."""
        if self._rows is None:
            raise ValueError("a network's own columns change only through the network's writers")
        row = self._rows.get(id(cell))
        if row is None:
            row = self._rows[id(cell)] = len(self.cells)
            self.cells.append(cell)
        self.cell_row[vertex] = row
        self._params.clear()


class TimingNetwork:
    """A flat timing graph, held as columns."""

    def __init__(self, name: str, columns: Optional[NetworkColumns] = None):
        """An empty network to build vertex by vertex, or one over ``columns``."""
        self.name = name
        self.endpoints: List[TimingEndpoint] = []
        if columns is None:
            no_rows = np.empty(0, dtype=np.int32)
            columns = NetworkColumns(
                np.empty(0, dtype=np.int8), *build_fanin_csr([]), [None], no_rows, np.empty(0), np.empty(0), []
            )
        self._kind = columns.kind
        self._fanin_indptr = columns.fanin_indptr
        self._fanin_indices = columns.fanin_indices
        self._cells = columns.cells
        self._cell_row = columns.cell_row
        self._derate = columns.derate
        self._extra_load = columns.extra_load
        self._names = columns.names
        # id(cell) -> its row in the cell table.
        self._cell_rows: Dict[int, int] = {id(cell): row for row, cell in enumerate(self._cells)}
        # Rows appended by add_vertex, frozen into the columns on first query.
        self._pending: List[tuple] = []
        # Views, dropped on every edit (the compiled ones on structural edits).
        self._vertices: Optional[Tuple[TimingVertex, ...]] = None
        self._fanouts: Optional[List[List[int]]] = None
        self._topo: Optional[List[int]] = None
        self._csr: Optional[CSRTimingGraph] = None

    def __getstate__(self) -> dict:
        # Pickles carry the columns and the public attributes (a subclass's
        # too, e.g. ``Netlist.library``).  The keys and their ``None`` cache
        # slots keep the layout networks have always pickled with, so record
        # pickles and their fingerprints stay byte-identical.
        state = {"name": self.name, "endpoints": self.endpoints, "_columns": self.columns()}
        state.update(dict.fromkeys(("_vertices", "_fanouts", "_topo", "_csr")))
        state.update((k, v) for k, v in vars(self).items() if k not in state and k[0] != "_")
        return state

    def __setstate__(self, state: dict) -> None:
        TimingNetwork.__init__(self, state["name"], state["_columns"])
        self.__dict__.update((k, v) for k, v in state.items() if k[0] != "_")

    # -- columns -------------------------------------------------------------

    def _freeze(self) -> None:
        """Append the pending build rows to the columns."""
        if not self._pending:
            return
        codes, fanins, rows, names = zip(*self._pending)
        self._pending = []
        indptr, indices = build_fanin_csr(fanins)
        self._kind = np.concatenate([self._kind, np.array(codes, dtype=np.int8)])
        self._fanin_indptr = np.concatenate([self._fanin_indptr, indptr[1:] + self._fanin_indptr[-1]])
        self._fanin_indices = np.concatenate([self._fanin_indices, indices])
        self._names = self._names + list(names)
        self._cell_row = np.concatenate([self._cell_row, np.array(rows, dtype=np.int32)])
        self._derate = np.concatenate([self._derate, np.ones(len(rows))])
        self._extra_load = np.concatenate([self._extra_load, np.zeros(len(rows))])

    def _row_of(self, cell: Optional[Cell]) -> int:
        """The cell-table row of ``cell``, appending it on first use."""
        if cell is None:
            return 0
        row = self._cell_rows.get(id(cell))
        if row is None:
            row = self._cell_rows[id(cell)] = len(self._cells)
            self._cells.append(cell)
        return row

    def columns(self) -> NetworkColumns:
        """The network as columns, its cell table in first-use order.

        A cell swap may leave the live table with unused rows or rows out of
        first-use order; the table returned here is the one
        :func:`~repro.sta.csr.cell_table` builds from the per-vertex cells,
        so pickles and digests depend only on which cell each vertex has.
        """
        self._freeze()
        cells, cell_row = self._cells, self._cell_row
        # The table is in first-use order, with no unused row, exactly when
        # no vertex's row exceeds the largest row before it by more than one
        # and the largest row is the last; that check is one pass.
        top = np.maximum.accumulate(np.concatenate([[0], cell_row]))
        if top[-1] != len(cells) - 1 or (cell_row > top[:-1] + 1).any():
            used, first = np.unique(cell_row, return_index=True)
            order = used[np.argsort(first, kind="stable")]
            order = order[order != 0]
            remap = np.zeros(len(cells), dtype=np.int32)
            remap[order] = np.arange(1, len(order) + 1, dtype=np.int32)
            cells = [None] + [cells[row] for row in order.tolist()]
            cell_row = remap[cell_row]
        return NetworkColumns(
            self._kind,
            self._fanin_indptr,
            self._fanin_indices,
            cells,
            cell_row,
            self._derate,
            self._extra_load,
            self._names,
        )

    def attribute_columns(self) -> AttributeColumns:
        """A view of the live attribute columns; change them through the writers."""
        self._freeze()
        return AttributeColumns(self._cells, self._cell_row, self._derate, self._extra_load)

    @property
    def vertices(self) -> Tuple[TimingVertex, ...]:
        """Read-only :class:`TimingVertex` views of the vertices, cached until an edit."""
        if self._vertices is None:
            self._freeze()
            ptr = self._fanin_indptr.tolist()
            indices = self._fanin_indices.tolist()
            rows = zip(
                self._kind.tolist(),
                self.vertex_cells(),
                self._names,
                self._extra_load.tolist(),
                self._derate.tolist(),
            )
            self._vertices = tuple(
                TimingVertex(i, _KIND_OF_CODE[code], tuple(indices[ptr[i] : ptr[i + 1]]), *row)
                for i, (code, *row) in enumerate(rows)
            )
        return self._vertices

    # -- construction and edits ----------------------------------------------

    def add_vertex(
        self,
        kind: VertexKind,
        fanins: Optional[Sequence[int]] = None,
        cell: Optional[Cell] = None,
        name: Optional[str] = None,
    ) -> int:
        """Append one vertex (``derate`` 1.0, no wire load); return its id."""
        vertex = len(self)
        self._pending.append((_KIND_CODE[kind], list(fanins or ()), self._row_of(cell), name))
        self.invalidate()
        return vertex

    def add_endpoint(self, endpoint: TimingEndpoint) -> None:
        self.endpoints.append(endpoint)

    def set_cell(self, vertex: int, cell: Optional[Cell]) -> None:
        """Make ``cell`` implement ``vertex``."""
        self._freeze()
        self._cell_row[vertex] = self._row_of(cell)
        self._vertices = None

    def set_derate(self, vertex, derate) -> None:
        """Set the delay derate of ``vertex`` (an id, or an index such as an id array)."""
        self._freeze()
        self._derate[vertex] = derate
        self._vertices = None

    def set_extra_load(self, vertex, extra_load) -> None:
        """Set the wire load (fF) on the net of ``vertex`` (an id, or an index such as an id array)."""
        self._freeze()
        self._extra_load[vertex] = extra_load
        self._vertices = None

    def set_fanins(self, vertex: int, fanins: Sequence[int]) -> None:
        """Replace the fanin list of ``vertex`` (a structural edit)."""
        self._freeze()
        indptr = self._fanin_indptr
        start, stop = int(indptr[vertex]), int(indptr[vertex + 1])
        new = np.array(fanins, dtype=np.int32)
        self._fanin_indices = np.concatenate(
            [self._fanin_indices[:start], new, self._fanin_indices[stop:]]
        )
        # Copy on write: the CSR arrays may be shared with a BOG or a pickle.
        self._fanin_indptr = indptr.copy()
        self._fanin_indptr[vertex + 1 :] += len(new) - (stop - start)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the views after a structural edit."""
        self._vertices = None
        self._fanouts = None
        self._topo = None
        self._csr = None

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kind) + len(self._pending)

    def kinds(self) -> np.ndarray:
        """Kind code (``repro.sta.csr.KIND_*``) of every vertex."""
        self._freeze()
        return self._kind

    def fanins_of(self, vertex: int) -> List[int]:
        """The fanins of ``vertex``, in order."""
        self._freeze()
        return self._fanin_indices[self._fanin_indptr[vertex] : self._fanin_indptr[vertex + 1]].tolist()

    def cell_of(self, vertex: int) -> Optional[Cell]:
        """The cell implementing ``vertex`` (``None`` for launch points without one)."""
        if self._pending:
            self._freeze()
        return self._cells[self._cell_row[vertex]]

    def derate_of(self, vertex: int) -> float:
        """The delay derate of ``vertex``."""
        if self._pending:
            self._freeze()
        return self._derate[vertex]

    def vertex_cells(self) -> List[Optional[Cell]]:
        """The cell of every vertex, in id order."""
        self._freeze()
        return [self._cells[row] for row in self._cell_row.tolist()]

    def compiled(self) -> CSRTimingGraph:
        """The compiled CSR/levelized view of the current structure, cached.

        Compilation is lazy: the first structural query after a change
        (``add_vertex``, ``set_fanins`` or :meth:`invalidate`) rebuilds it;
        value edits (cells, ``derate``, ``extra_load``) do not need one,
        because the kernels read :meth:`attribute_columns` directly.
        Raises ``ValueError`` on an out-of-range fanin or a combinational
        cycle.
        """
        if self._csr is None:
            self._freeze()
            self._csr = CSRTimingGraph(
                self.name, self._kind, self._fanin_indptr, self._fanin_indices
            )
        return self._csr

    def fanouts(self) -> List[List[int]]:
        """Fanout adjacency (thin view over the compiled CSR arrays), cached."""
        if self._fanouts is None:
            self._fanouts = self.compiled().fanout_lists()
        return self._fanouts

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

    def gate_count(self) -> int:
        return int(np.count_nonzero(self.kinds() == KIND_GATE))

    def register_count(self) -> int:
        return int(np.count_nonzero(self.kinds() == KIND_REGISTER))

    def validate(self) -> None:
        """Check fanin ranges, acyclicity, gate cells and endpoint drivers.

        Checks run in that order as array tests; each raises ``ValueError``
        naming its first offending vertex or endpoint.
        """
        compiled = self.compiled()  # raises on out-of-range fanins, then cycles
        missing = (compiled.kind == KIND_GATE) & (self._cell_row == 0)
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

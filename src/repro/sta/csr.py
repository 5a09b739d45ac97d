"""Compiled array-native view of a :class:`~repro.sta.network.TimingNetwork`.

A network is columns (kind codes, a fanin CSR, a cell table and per-vertex
attribute columns).  :class:`CSRTimingGraph` is the compiled form of its
structure that every hot kernel — full STA, incremental what-if re-timing,
load computation — runs on: int32 CSR fanin/fanout adjacency, a
levelization pass (``level = 1 + max fanin level``) and a level-major
vertex order, over which the NLDM timing recurrence runs as whole-level
numpy sweeps.  One constructor builds it from kind codes and a fanin CSR.

Two invariants make the array kernel a drop-in replacement for the
per-vertex reference kernel (:func:`repro.sta.engine.propagate_vertex`):

* **Structure vs attributes.**  The compiled CSR arrays depend only on the
  graph *structure* (fanins, kinds) and are rebuilt after a structural edit
  (``TimingNetwork.invalidate``).  The per-vertex *attributes* (``derate``,
  ``extra_load``, the cell) are handed to each kernel call as an
  :class:`~repro.sta.network.AttributeColumns` view of the network's own
  arrays, because value edits change them in place without a structural
  invalidation.
* **Bit-identical math.**  Each numpy expression applies the same float64
  operations in the same per-element order as the scalar reference
  (``d = (intrinsic + resistance*load) + slew_factor*slew``;
  ``cand = arrival + derate*d``; the fanin max is an exact reduction), so
  the two kernels agree bit for bit, not merely to a tolerance — asserted
  by ``tests/test_sta_kernels.py`` and fuzzed by the
  ``array_vs_reference_sta`` oracle.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import fault_active

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports this module)
    from repro.sta.constraints import ClockConstraint
    from repro.sta.network import AttributeColumns

#: Integer codes of :class:`~repro.sta.network.VertexKind`, in declaration order.
KIND_CONST = 0
KIND_INPUT = 1
KIND_REGISTER = 2
KIND_GATE = 3


def build_fanin_csr(fanins_of: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of per-vertex fanin lists, preserving list order."""
    n = len(fanins_of)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.fromiter(map(len, fanins_of), dtype=np.int32, count=n), out=indptr[1:])
    indices = np.fromiter(
        chain.from_iterable(fanins_of), dtype=np.int32, count=int(indptr[-1])
    )
    return indptr, indices


def check_fanin_range(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first fanin outside ``[0, n)``, if any."""
    n = len(indptr) - 1
    if not indices.size or (indices.min() >= 0 and indices.max() < n):
        return
    position = int(np.flatnonzero((indices < 0) | (indices >= n))[0])
    vertex = int(np.searchsorted(indptr, position, side="right")) - 1
    raise ValueError(f"vertex {vertex} has out-of-range fanin {int(indices[position])}")


def cell_table(cells: Sequence[object]) -> Tuple[List[object], np.ndarray]:
    """Distinct cells in first-use order (row 0 is ``None``) and each entry's row.

    Rows follow first use, never ``id()`` order, so two processes gathering
    the same vertex cells get the same table.
    """
    n = len(cells)
    table: List[object] = [None]
    if not n:
        return table, np.empty(0, dtype=np.int32)
    ids = np.fromiter(map(id, cells), dtype=np.int64, count=n)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rows = np.zeros(len(first), dtype=np.int32)
    for unique in np.argsort(first, kind="stable").tolist():
        cell = cells[int(first[unique])]
        if cell is not None:
            rows[unique] = len(table)
            table.append(cell)
    return table, rows[inverse]


def invert_csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fanout CSR from a fanin CSR.

    Row ``v`` of the result lists the consumers of ``v`` in ascending
    consumer id (ties in fanin-position order), which is exactly the order
    the list-of-lists ``TimingNetwork.fanouts()`` view historically produced.
    """
    counts = np.bincount(indices, minlength=n) if indices.size else np.zeros(n, dtype=np.int64)
    out_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=out_ptr[1:])
    if indices.size == 0:
        return out_ptr, np.empty(0, dtype=np.int32)
    consumers = np.repeat(
        np.arange(n, dtype=np.int32), np.diff(indptr).astype(np.int64)
    )
    grouping = np.argsort(indices, kind="stable")
    return out_ptr, consumers[grouping]


def gather_edges(indptr: np.ndarray, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions (into the CSR ``indices`` array) of all edges of ``ids``.

    Returns ``(positions, counts)`` where ``counts[k]`` is the edge count of
    ``ids[k]`` and ``positions`` concatenates each id's contiguous CSR slice
    in order.  This is the standard repeat/arange gather that turns a dynamic
    vertex subset into one flat edge array without a Python loop.
    """
    counts = (indptr[ids + 1] - indptr[ids]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = indptr[ids].astype(np.int64)
    excl = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=excl[1:])
    positions = np.arange(total, dtype=np.int64) + np.repeat(starts - excl, counts)
    return positions, counts


def levelize(
    n: int,
    fanin_indptr: np.ndarray,
    fanin_indices: np.ndarray,
    fanout_indptr: np.ndarray,
    fanout_indices: np.ndarray,
    name: str = "<graph>",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frontier-style Kahn levelization over a CSR graph.

    Returns ``(level, order, level_ptr)``: per-vertex logic level
    (``level = 1 + max fanin level``, sources at 0), the level-major vertex
    order (ascending id within each level), and the indptr of level slices
    into ``order``.  Raises ``ValueError`` when the graph has a cycle, with
    the same message the object-graph Kahn traversal used to raise.
    """
    level = np.zeros(n, dtype=np.int32)
    order = np.empty(n, dtype=np.int32)
    indegree = np.diff(fanin_indptr).astype(np.int64)
    frontier = np.flatnonzero(indegree == 0).astype(np.int32)
    level_ptr: List[int] = [0]
    placed = 0
    current = 0
    while frontier.size:
        order[placed : placed + frontier.size] = frontier
        level[frontier] = current
        placed += frontier.size
        level_ptr.append(placed)
        positions, _ = gather_edges(fanout_indptr, frontier)
        if positions.size == 0:
            break
        consumers = fanout_indices[positions]
        indegree -= np.bincount(consumers, minlength=n)
        candidates = np.unique(consumers)
        frontier = candidates[indegree[candidates] == 0].astype(np.int32)
        current += 1
    if placed != n:
        raise ValueError(f"timing network {name!r} contains a combinational cycle")
    return level, order, np.asarray(level_ptr, dtype=np.int32)


class _SweepPlan:
    """Precomputed structural layout of one full level sweep.

    Everything here is a pure function of the compiled structure (kinds,
    fanins, levels), so it is built once per compilation and reused by every
    :meth:`CSRTimingGraph.sweep_all` call: per-kind vertex id arrays for the
    level-independent updates, and the gate/edge arrays of the level loop in
    level-major order so each level is a contiguous slice.
    """

    __slots__ = (
        "inputs",
        "consts",
        "registers",
        "gates",
        "gates_no_fanin",
        "gate_seq",
        "edge_src",
        "edge_owner",
        "level_gate_ptr",
        "level_edge_ptr",
        "seg_starts",
    )

    def __init__(self, graph: "CSRTimingGraph"):
        kind = graph.kind
        self.inputs = np.flatnonzero(kind == KIND_INPUT)
        self.consts = np.flatnonzero(kind == KIND_CONST)
        self.registers = np.flatnonzero(kind == KIND_REGISTER)
        self.gates = np.flatnonzero(kind == KIND_GATE)
        fanin_counts = np.diff(graph.fanin_indptr).astype(np.int64)
        self.gates_no_fanin = self.gates[fanin_counts[self.gates] == 0]

        gate_parts: List[np.ndarray] = []
        edge_parts: List[np.ndarray] = []
        owner_parts: List[np.ndarray] = []
        self.seg_starts: List[np.ndarray] = []
        gate_ptr = [0]
        edge_ptr = [0]
        offset = 0
        for lvl in range(graph.n_levels):
            ids = graph.level_slice(lvl)
            gates = ids[kind[ids] == KIND_GATE].astype(np.int64)
            gates = gates[fanin_counts[gates] > 0]
            positions, counts = gather_edges(graph.fanin_indptr, gates)
            gate_parts.append(gates)
            edge_parts.append(graph.fanin_indices[positions].astype(np.int64))
            owner_parts.append(offset + np.repeat(np.arange(len(gates), dtype=np.int64), counts))
            starts = np.zeros(len(gates), dtype=np.int64)
            if len(gates) > 1:
                np.cumsum(counts[:-1], out=starts[1:])
            self.seg_starts.append(starts)
            offset += len(gates)
            gate_ptr.append(offset)
            edge_ptr.append(edge_ptr[-1] + int(counts.sum()))
        self.gate_seq = (
            np.concatenate(gate_parts) if gate_parts else np.empty(0, dtype=np.int64)
        )
        self.edge_src = (
            np.concatenate(edge_parts) if edge_parts else np.empty(0, dtype=np.int64)
        )
        self.edge_owner = (
            np.concatenate(owner_parts) if owner_parts else np.empty(0, dtype=np.int64)
        )
        self.level_gate_ptr = gate_ptr
        self.level_edge_ptr = edge_ptr


class CSRTimingGraph:
    """Compiled structure of one :class:`~repro.sta.network.TimingNetwork`.

    Holds only *structural* state (adjacency, kinds, levels); vertex
    attributes travel separately as ``AttributeColumns``.
    """

    __slots__ = (
        "name",
        "n",
        "fanin_indptr",
        "fanin_indices",
        "fanout_indptr",
        "fanout_indices",
        "kind",
        "level",
        "order",
        "level_ptr",
        "_plan",
    )

    def __init__(
        self, name: str, kind: np.ndarray, fanin_indptr: np.ndarray, fanin_indices: np.ndarray
    ):
        self.name = name
        self.n = len(kind)
        self.kind = kind
        self.fanin_indptr = fanin_indptr
        self.fanin_indices = fanin_indices
        check_fanin_range(fanin_indptr, fanin_indices)
        self.fanout_indptr, self.fanout_indices = invert_csr(
            self.n, self.fanin_indptr, self.fanin_indices
        )
        self.level, self.order, self.level_ptr = levelize(
            self.n,
            self.fanin_indptr,
            self.fanin_indices,
            self.fanout_indptr,
            self.fanout_indices,
            name=self.name,
        )
        self._plan: Optional[_SweepPlan] = None

    # -- views ---------------------------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.level_ptr) - 1

    def level_slice(self, level: int) -> np.ndarray:
        """Vertex ids of one level, ascending."""
        return self.order[self.level_ptr[level] : self.level_ptr[level + 1]]

    def topological_list(self) -> List[int]:
        """The level-major order as a plain Python list (thin-view adapter)."""
        return self.order.tolist()

    def fanout_lists(self) -> List[List[int]]:
        """List-of-lists fanout view, identical to the historical layout."""
        indptr = self.fanout_indptr
        indices = self.fanout_indices.tolist()
        return [indices[indptr[v] : indptr[v + 1]] for v in range(self.n)]

    # -- kernels -------------------------------------------------------------

    def compute_loads(
        self, cols: "AttributeColumns", endpoint_pins: Tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Vectorized output loads, bit-identical to ``engine.compute_loads``.

        ``endpoint_pins`` is the network's ``(drivers, pin caps)`` per
        endpoint (``TimingNetwork.endpoint_pins``).  ``np.add.at`` is
        unbuffered and applies the additions in index order, so each
        vertex's load accumulates its terms in exactly the reference
        sequence: consumer pin caps in (consumer id, fanin position) order,
        then endpoint pin caps in endpoint-list order, then the wire load.
        Vertices without a cell contribute a 0.0 pin cap, which is an exact
        no-op on the running sums.
        """
        loads = np.zeros(self.n, dtype=np.float64)
        if self.fanin_indices.size:
            pin_caps = np.repeat(
                cols.param("input_cap"), np.diff(self.fanin_indptr).astype(np.int64)
            )
            np.add.at(loads, self.fanin_indices, pin_caps)
        drivers, caps = endpoint_pins
        if drivers.size:
            np.add.at(loads, drivers, caps)
        loads += cols.extra_load
        return loads

    def sweep_all(
        self,
        cols: "AttributeColumns",
        clock: "ClockConstraint",
        arrivals: np.ndarray,
        slews: np.ndarray,
        loads: np.ndarray,
    ) -> None:
        """Full level sweep over the whole graph, in place.

        The NLDM recurrence of :func:`repro.sta.engine.propagate_vertex`,
        restructured around the cached :class:`_SweepPlan`: everything that
        does not depend on fanin values — every slew, source/register
        arrivals, the per-edge delay term — is computed in whole-graph
        vectorized passes up front, and the level-sequential remainder (gate
        arrival maxima) runs on contiguous slices of the precomputed
        level-major edge arrays.  Full STA and every incremental what-if
        re-timing run through this one kernel.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = _SweepPlan(self)

        if plan.inputs.size:
            arrivals[plan.inputs] = clock.input_delay
            slews[plan.inputs] = clock.input_slew
        if plan.consts.size:
            arrivals[plan.consts] = 0.0
            slews[plan.consts] = clock.input_slew
        registers = plan.registers
        if registers.size:
            load = loads[registers]
            arrivals[registers] = (
                cols.param("clk_to_q")[registers] + cols.param("resistance")[registers] * load
            )
            slews[registers] = np.where(
                cols.has_cell()[registers],
                cols.param("slew_intrinsic")[registers]
                + cols.param("slew_resistance")[registers] * load,
                clock.input_slew,
            )
        gates = plan.gates
        if not gates.size:
            return
        # Gate slews depend only on the gate's own load, never on fanin
        # values, so all of them are final before the level loop starts.
        load = loads[gates]
        slews[gates] = cols.param("slew_intrinsic")[gates] + cols.param("slew_resistance")[gates] * load
        if plan.gates_no_fanin.size:
            # max over no candidates, clamped at the reference's 0.0 start.
            arrivals[plan.gates_no_fanin] = 0.0
        seq = plan.gate_seq
        if not seq.size:
            return
        seq_load = loads[seq]
        base = cols.param("intrinsic_delay")[seq] + cols.param("resistance")[seq] * seq_load
        slew_factor = cols.param("slew_factor")[seq]
        derate = cols.derate[seq]
        owner = plan.edge_owner
        # The arrival-independent half of every edge's candidate term,
        # element-for-element the reference expression derate*(base + sf*slew).
        contrib = derate[owner] * (base[owner] + slew_factor[owner] * slews[plan.edge_src])
        if fault_active("sta.array_delay"):
            # Debug fault point: a small uniform perturbation of the
            # candidate arrivals makes the array kernel diverge from the
            # reference, which the array_vs_reference_sta oracle must catch
            # (see repro.faults).
            contrib = contrib + 1e-6

        edge_src = plan.edge_src
        gate_ptr = plan.level_gate_ptr
        edge_ptr = plan.level_edge_ptr
        seg_starts = plan.seg_starts
        for lvl in range(len(gate_ptr) - 1):
            g0, g1 = gate_ptr[lvl], gate_ptr[lvl + 1]
            if g0 == g1:
                continue
            e0, e1 = edge_ptr[lvl], edge_ptr[lvl + 1]
            cand = arrivals[edge_src[e0:e1]] + contrib[e0:e1]
            seg_max = np.maximum.reduceat(cand, seg_starts[lvl])
            arrivals[seq[g0:g1]] = np.maximum(seg_max, 0.0)

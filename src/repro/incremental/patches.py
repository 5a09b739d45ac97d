"""Local edits of a :class:`TimingNetwork`, as patch objects or as one array plan.

A patch describes one small local change.  Three edit kinds cover the
what-if scenarios, exactly the kinds the what-if projection
(:mod:`repro.incremental.whatif`) emits:

* :class:`SetDerate` — local optimization-effort change on one gate
  (models the stage rebalancing a ``retime`` directive achieves),
* :class:`SwapCell` — drive-strength / cell substitution
  (models ``group_path`` sizing budgets),
* :class:`AddExtraLoad` — wire-load delta on one net
  (models area recovery on an ample-slack net).

None of them changes the graph's structure, so a patch set never changes
the network's topology or size.  Each kind has a fixed *timing footprint*
(:func:`patched_vertices`): every patched vertex's own delay equation
changes, and so do the output loads of a swapped cell's fanins (its input
capacitance changed) and of a loaded net's driver.  The incremental engine
seeds its footprint stats and its reference dirty-cone worklist with them.

A patch is data, not an edit of the network: its ``write(cols)`` writes
the candidate's values into an
:meth:`~repro.sta.network.AttributeColumns.overridden` copy of the
network's attribute columns, in patch order, so a what-if never edits the
netlist it re-times and needs no revert.  A :class:`PatchPlan` is the same
kind of patch set held as arrays: the projection builds one per candidate,
and its override columns are scattered straight from the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.liberty import Cell
from repro.sta.network import AttributeColumns


class TimingPatch:
    """Base interface for local timing-network edits."""

    vertex: int

    def write(self, cols: AttributeColumns) -> None:
        """Write this edit into the candidate columns ``cols``."""
        raise NotImplementedError


@dataclass
class SetDerate(TimingPatch):
    """Set the delay derate of one gate (1.0 = nominal, <1.0 = faster)."""

    vertex: int
    derate: float

    def write(self, cols: AttributeColumns) -> None:
        cols.derate[self.vertex] = float(self.derate)


@dataclass
class SwapCell(TimingPatch):
    """Replace the cell implementing one vertex (e.g. a drive-strength move).

    The swap changes the vertex's own delay/slew equation *and* the input
    capacitance it presents to its fanins, so the fanins' loads are part of
    the footprint.
    """

    vertex: int
    cell: Cell

    def write(self, cols: AttributeColumns) -> None:
        if cols.cells[cols.cell_row[self.vertex]] is None:
            raise ValueError(f"vertex {self.vertex} has no cell to swap")
        cols.set_cell(self.vertex, self.cell)


@dataclass
class AddExtraLoad(TimingPatch):
    """Add ``delta`` fF of wire load to one vertex's output net."""

    vertex: int
    delta: float

    def write(self, cols: AttributeColumns) -> None:
        # Stacked loads add onto the value already written.
        cols.extra_load[self.vertex] = float(cols.extra_load[self.vertex]) + float(self.delta)


@dataclass(frozen=True, eq=False)
class PatchPlan:
    """One candidate's patches as arrays: derates, then cell swaps, then extra loads.

    Each kind touches a vertex at most once.  ``cells`` is the cell table
    ``swap_rows`` index (the baseline's table plus every upsized cell) and
    ``tables`` its shared per-row parameter tables
    (:meth:`~repro.sta.network.AttributeColumns.table`).  Iterating yields
    the equivalent patch objects in that order, for the reference paths
    that want them.
    """

    cells: List[Optional[Cell]]
    tables: Dict[str, np.ndarray]
    derate_vertices: np.ndarray
    derates: np.ndarray
    swap_vertices: np.ndarray
    swap_rows: np.ndarray
    load_vertices: np.ndarray
    load_deltas: np.ndarray

    def __len__(self) -> int:
        return len(self.derate_vertices) + len(self.swap_vertices) + len(self.load_vertices)

    def __iter__(self) -> Iterator[TimingPatch]:
        for vertex, derate in zip(self.derate_vertices.tolist(), self.derates.tolist()):
            yield SetDerate(vertex, derate)
        for vertex, row in zip(self.swap_vertices.tolist(), self.swap_rows.tolist()):
            yield SwapCell(vertex, self.cells[row])
        for vertex, delta in zip(self.load_vertices.tolist(), self.load_deltas.tolist()):
            yield AddExtraLoad(vertex, delta)

    def columns(self, base: AttributeColumns) -> AttributeColumns:
        """``base`` (the network's own columns) with this plan scattered into copies."""
        cell_row = base.cell_row.copy()
        cell_row[self.swap_vertices] = self.swap_rows
        derate = base.derate.copy()
        derate[self.derate_vertices] = self.derates
        extra_load = base.extra_load.copy()
        extra_load[self.load_vertices] += self.load_deltas
        return AttributeColumns(self.cells, cell_row, derate, extra_load, self.tables)


Patches = Union[PatchPlan, Sequence[TimingPatch]]


def patched_vertices(patches: Patches) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The footprint of a patch set: ``(every patched vertex, swapped ones, loaded ones)``."""
    if isinstance(patches, PatchPlan):
        touched = np.concatenate(
            [patches.derate_vertices, patches.swap_vertices, patches.load_vertices]
        )
        return touched, patches.swap_vertices, patches.load_vertices
    touched = [p.vertex for p in patches]
    swapped = [p.vertex for p in patches if isinstance(p, SwapCell)]
    loaded = [p.vertex for p in patches if isinstance(p, AddExtraLoad)]
    return tuple(np.array(ids, dtype=np.int64) for ids in (touched, swapped, loaded))

"""Local edits of a :class:`TimingNetwork`, held as one array plan.

A :class:`PatchPlan` describes a small set of local changes.  Three edit
kinds cover the what-if scenarios, exactly the kinds the what-if
projection (:mod:`repro.incremental.whatif`) emits:

* derates — local optimization-effort change on one gate
  (models the stage rebalancing a ``retime`` directive achieves),
* cell swaps — drive-strength / cell substitution
  (models ``group_path`` sizing budgets),
* extra loads — a wire-load delta on one net
  (models area recovery on an ample-slack net).

None of them changes the graph's structure, so a plan never changes the
network's topology or size.  Each kind has a fixed *timing footprint*:
every patched vertex's own delay equation changes, and so do the output
loads of a swapped cell's fanins (its input capacitance changed) and of a
loaded net's driver.  The incremental engine seeds its footprint stats
with them.

A plan is data, not an edit of the network: :meth:`PatchPlan.columns`
scatters it into copies of the network's attribute columns, so a what-if
never edits the netlist it re-times and needs no revert.  The projection
builds one plan per candidate; :meth:`PatchPlan.of` builds one by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.liberty import Cell
from repro.sta.network import AttributeColumns, TimingNetwork


@dataclass(frozen=True, eq=False)
class PatchPlan:
    """One candidate's patches as arrays: derates, then cell swaps, then extra loads.

    Each kind touches a vertex at most once.  ``cells`` is the cell table
    ``swap_rows`` index (the baseline's table plus every new cell) and
    ``tables`` its shared per-row parameter tables
    (:meth:`~repro.sta.network.AttributeColumns.table`).
    """

    cells: List[Optional[Cell]]
    tables: Dict[str, np.ndarray]
    derate_vertices: np.ndarray
    derates: np.ndarray
    swap_vertices: np.ndarray
    swap_rows: np.ndarray
    load_vertices: np.ndarray
    load_deltas: np.ndarray

    @classmethod
    def of(
        cls,
        network: TimingNetwork,
        derates: Optional[Mapping[int, float]] = None,
        swaps: Optional[Mapping[int, Cell]] = None,
        loads: Optional[Mapping[int, float]] = None,
    ) -> "PatchPlan":
        """A plan on ``network`` from ``{vertex: derate}``, ``{vertex: cell}`` and
        ``{vertex: delta}`` maps, each in its insertion order.

        A cell not in the network's table gets a new row; swapping a vertex
        that has no cell raises ``ValueError``.
        """
        derates, swaps, loads = derates or {}, swaps or {}, loads or {}
        base = network.attribute_columns()
        cells = list(base.cells)
        rows = {id(cell): row for row, cell in enumerate(cells)}
        swap_rows = []
        for vertex, cell in swaps.items():
            if not base.cell_row[vertex]:
                raise ValueError(f"vertex {vertex} has no cell to swap")
            row = rows.setdefault(id(cell), len(cells))
            if row == len(cells):
                cells.append(cell)
            swap_rows.append(row)
        return cls(
            cells=cells,
            tables={},
            derate_vertices=_ids(derates),
            derates=np.fromiter(derates.values(), dtype=np.float64, count=len(derates)),
            swap_vertices=_ids(swaps),
            swap_rows=np.array(swap_rows, dtype=np.int64),
            load_vertices=_ids(loads),
            load_deltas=np.fromiter(loads.values(), dtype=np.float64, count=len(loads)),
        )

    def __len__(self) -> int:
        return len(self.derate_vertices) + len(self.swap_vertices) + len(self.load_vertices)

    def columns(self, base: AttributeColumns) -> AttributeColumns:
        """``base`` (the network's own columns) with this plan scattered into copies."""
        cell_row = base.cell_row.copy()
        cell_row[self.swap_vertices] = self.swap_rows
        derate = base.derate.copy()
        derate[self.derate_vertices] = self.derates
        extra_load = base.extra_load.copy()
        extra_load[self.load_vertices] += self.load_deltas
        return AttributeColumns(self.cells, cell_row, derate, extra_load, self.tables)


def _ids(by_vertex: Mapping[int, object]) -> np.ndarray:
    return np.fromiter(by_vertex, dtype=np.int64, count=len(by_vertex))


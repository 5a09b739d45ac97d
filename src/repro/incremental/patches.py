"""Patch objects describing local edits to a :class:`TimingNetwork`.

A patch describes one small local change with a declared *timing
footprint*: the vertices whose own delay equation changes
(``dirty_delay_vertices``) and the vertices whose output load changes
(``dirty_load_vertices``).  The incremental engine seeds its footprint stats
and its reference dirty-cone worklist with them, so a patch must be honest
about everything it touches — under-reporting breaks the worklist's
equivalence with a full re-analysis.

Three edit kinds cover the what-if scenarios, exactly the kinds
:func:`~repro.incremental.whatif.patches_for_options` emits:

* :class:`SetDerate` — local optimization-effort change on one gate
  (models the stage rebalancing a ``retime`` directive achieves),
* :class:`SwapCell` — drive-strength / cell substitution
  (models ``group_path`` sizing budgets),
* :class:`AddExtraLoad` — wire-load delta on one net
  (models area recovery on an ample-slack net).

None of them changes the graph's structure, so a patch set never changes
the network's topology or size.

A patch is data, not an edit of the network: its ``write(cols)`` writes
the candidate's values into an
:meth:`~repro.sta.network.AttributeColumns.overridden` copy of the
network's attribute columns, in patch order, so a what-if never edits the
netlist it re-times and needs no revert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.liberty import Cell
from repro.sta.network import AttributeColumns, TimingNetwork


class TimingPatch:
    """Base interface for local timing-network edits."""

    def write(self, cols: AttributeColumns) -> None:
        """Write this edit into the candidate columns ``cols``."""
        raise NotImplementedError

    def dirty_delay_vertices(self, network: TimingNetwork) -> Iterable[int]:
        """Vertices whose own arrival/slew equation changed."""
        return ()

    def dirty_load_vertices(self, network: TimingNetwork) -> Iterable[int]:
        """Vertices whose output load must be recomputed."""
        return ()


@dataclass
class SetDerate(TimingPatch):
    """Set the delay derate of one gate (1.0 = nominal, <1.0 = faster)."""

    vertex: int
    derate: float

    def write(self, cols: AttributeColumns) -> None:
        cols.derate[self.vertex] = float(self.derate)

    def dirty_delay_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return (self.vertex,)


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

    def dirty_delay_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return (self.vertex,)

    def dirty_load_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return tuple(network.fanins_of(self.vertex))


@dataclass
class AddExtraLoad(TimingPatch):
    """Add ``delta`` fF of wire load to one vertex's output net."""

    vertex: int
    delta: float

    def write(self, cols: AttributeColumns) -> None:
        # Stacked loads add onto the value already written.
        cols.extra_load[self.vertex] = float(cols.extra_load[self.vertex]) + float(self.delta)

    def dirty_delay_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return (self.vertex,)

    def dirty_load_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return (self.vertex,)

"""Patch objects describing local edits to a :class:`TimingNetwork`.

A patch is a small, invertible edit with a declared *timing footprint*: the
vertices whose own delay equation changes (``dirty_delay_vertices``) and the
vertices whose output load changes (``dirty_load_vertices``).  The
incremental engine seeds its footprint stats and its reference dirty-cone
worklist with them, so a patch must be honest about everything it touches —
under-reporting breaks the worklist's equivalence with a full re-analysis.

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

Every patch supports ``apply`` / ``revert`` on the live network through the
network's column writers; ``revert`` restores the exact previous state,
which is what makes the engine's
:meth:`~repro.incremental.engine.IncrementalSTA.what_if` context safe to run
against a shared baseline netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.liberty import Cell
from repro.sta.network import TimingNetwork


class TimingPatch:
    """Base interface for local timing-network edits."""

    def apply(self, network: TimingNetwork) -> None:
        raise NotImplementedError

    def revert(self, network: TimingNetwork) -> None:
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
    _previous: Optional[float] = field(default=None, repr=False)

    def apply(self, network: TimingNetwork) -> None:
        self._previous = float(network.derate_of(self.vertex))
        network.set_derate(self.vertex, float(self.derate))

    def revert(self, network: TimingNetwork) -> None:
        assert self._previous is not None, "revert before apply"
        network.set_derate(self.vertex, self._previous)
        self._previous = None

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
    _previous: Optional[Cell] = field(default=None, repr=False)

    def apply(self, network: TimingNetwork) -> None:
        previous = network.cell_of(self.vertex)
        if previous is None:
            raise ValueError(f"vertex {self.vertex} has no cell to swap")
        self._previous = previous
        network.set_cell(self.vertex, self.cell)

    def revert(self, network: TimingNetwork) -> None:
        assert self._previous is not None, "revert before apply"
        network.set_cell(self.vertex, self._previous)
        self._previous = None

    def dirty_delay_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return (self.vertex,)

    def dirty_load_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return tuple(network.fanins_of(self.vertex))


@dataclass
class AddExtraLoad(TimingPatch):
    """Add ``delta`` fF of wire load to one vertex's output net."""

    vertex: int
    delta: float
    _previous: Optional[float] = field(default=None, repr=False)

    def apply(self, network: TimingNetwork) -> None:
        self._previous = float(network.attribute_columns().extra_load[self.vertex])
        # Revert restores the saved value instead of subtracting the delta:
        # stacked float additions do not cancel exactly.
        network.set_extra_load(self.vertex, self._previous + float(self.delta))

    def revert(self, network: TimingNetwork) -> None:
        assert self._previous is not None, "revert before apply"
        network.set_extra_load(self.vertex, self._previous)
        self._previous = None

    def dirty_delay_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return (self.vertex,)

    def dirty_load_vertices(self, network: TimingNetwork) -> Iterable[int]:
        return (self.vertex,)

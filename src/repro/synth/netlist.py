"""Gate-level netlist produced by technology mapping.

The netlist *is* a :class:`~repro.sta.network.TimingNetwork` — every vertex
is a mapped standard-cell instance (or launch point) — extended with the
quality-of-results accounting (area, leakage and dynamic power) that the
paper's Table 6 reports next to WNS/TNS, and with the in-place edit
operations the timing-driven optimizer uses (cell sizing, register retiming).

Register endpoints keep the bit-level RTL names (``"R1[3]"``), preserving the
register consistency between RTL and netlist that the paper's labelling
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.liberty import Library
from repro.sta.csr import KIND_CONST, KIND_GATE, KIND_REGISTER
from repro.sta.engine import STAReport, ordered_sum
from repro.sta.network import TimingEndpoint, TimingNetwork, VertexKind


@dataclass
class QoR:
    """Quality-of-results summary for a synthesized netlist."""

    wns: float
    tns: float
    area: float
    total_power: float
    leakage_power: float
    dynamic_power: float
    n_cells: int
    n_registers: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "wns": self.wns,
            "tns": self.tns,
            "area": self.area,
            "total_power": self.total_power,
            "leakage_power": self.leakage_power,
            "dynamic_power": self.dynamic_power,
            "n_cells": float(self.n_cells),
            "n_registers": float(self.n_registers),
        }


class Netlist(TimingNetwork):
    """A mapped gate-level netlist with QoR accounting and edit operations."""

    def __init__(self, name: str, library: Library):
        super().__init__(name)
        self.library = library

    # -- quality of results ---------------------------------------------------

    def area(self) -> float:
        """Total cell area (um^2), summed in vertex order."""
        return ordered_sum([cell.area for cell in self.vertex_cells() if cell is not None])

    def leakage_power(self) -> float:
        """Total leakage power (nW), summed in vertex order."""
        return ordered_sum([cell.leakage for cell in self.vertex_cells() if cell is not None])

    def dynamic_power(self, activity: float = 0.1, frequency_ghz: float = 1.0) -> float:
        """Switching power proxy (uW) under a uniform activity factor."""
        loads = self.compiled().compute_loads(self.attribute_columns(), self.endpoint_pins())
        energy = 0.0
        for cell, kind, load in zip(self.vertex_cells(), self.kinds().tolist(), loads.tolist()):
            if cell is not None and kind != KIND_CONST:
                energy += cell.dynamic_energy(load)
        return activity * frequency_ghz * energy * 1e-3

    def qor(self, report: STAReport, activity: float = 0.1) -> QoR:
        """Bundle timing and power/area metrics into a QoR record."""
        leakage = self.leakage_power()
        dynamic = self.dynamic_power(activity=activity)
        return QoR(
            wns=report.wns,
            tns=report.tns,
            area=self.area(),
            total_power=leakage * 1e-3 + dynamic,
            leakage_power=leakage,
            dynamic_power=dynamic,
            n_cells=self.gate_count(),
            n_registers=self.register_count(),
        )

    def cell_histogram(self) -> Dict[str, int]:
        """Number of instances per cell function."""
        histogram: Dict[str, int] = {}
        for cell in self.vertex_cells():
            if cell is not None:
                histogram[cell.function] = histogram.get(cell.function, 0) + 1
        return histogram

    # -- edit operations -------------------------------------------------------

    def upsize(self, vertex_id: int) -> bool:
        """Replace the vertex's cell with the next stronger drive. Returns
        ``True`` when a stronger variant existed."""
        return self._resize(vertex_id, self.library.upsize)

    def downsize(self, vertex_id: int) -> bool:
        """Replace the vertex's cell with the next weaker drive. Returns
        ``True`` when a weaker variant existed."""
        return self._resize(vertex_id, self.library.downsize)

    def _resize(self, vertex_id: int, step) -> bool:
        cell = self.cell_of(vertex_id)
        if cell is None:
            return False
        resized = step(cell)
        if resized is None:
            return False
        self.set_cell(vertex_id, resized)
        return True

    def retime_endpoint_backward(self, endpoint_name: str) -> bool:
        """Move the endpoint's register backward across its driving gate.

        This implements the classic backward retiming move used by the
        ``retime`` synthesis option: when the last gate ``g`` before register
        ``R`` is the bottleneck, ``R`` is replaced by one register per fanin
        of ``g`` and a copy of ``g`` is re-created *after* the (new) registers
        on the launch side.  The endpoint arrival decreases by roughly the
        delay of ``g`` while downstream paths from ``R`` grow by the same
        amount — which is precisely the balancing trade-off Fig. 4 of the
        paper illustrates.

        Returns ``True`` if the move was applied (the driver was a gate with
        register fanout only through this endpoint's register).
        """
        endpoint = next((e for e in self.endpoints if e.name == endpoint_name), None)
        if endpoint is None or endpoint.kind != "register":
            return False
        driver_fanins = self.fanins_of(endpoint.driver)
        if self.kinds()[endpoint.driver] != KIND_GATE or not driver_fanins:
            return False
        register = self._register_vertex_of(endpoint)
        if register is None:
            return False
        consumers = dict.fromkeys(self.fanouts()[register])

        # 1. One new register per fanin of the driving gate.
        new_regs: List[int] = []
        reg_cell = self.cell_of(register)
        for index, fanin in enumerate(driver_fanins):
            reg_id = self.add_vertex(
                VertexKind.REGISTER,
                cell=reg_cell,
                name=f"{endpoint.name}.rt{index}",
            )
            new_regs.append(reg_id)
            self.add_endpoint(
                TimingEndpoint(
                    name=f"{endpoint.name}.rt{index}",
                    signal=endpoint.signal,
                    bit=endpoint.bit,
                    driver=fanin,
                    kind="register",
                    capture_cell=reg_cell,
                )
            )

        # 2. A copy of the driving gate is placed after the new registers and
        #    takes over the original register's fanout.
        gate_copy = self.add_vertex(
            VertexKind.GATE, fanins=new_regs, cell=self.cell_of(endpoint.driver), name=None
        )
        for consumer in consumers:
            self.set_fanins(
                consumer, [gate_copy if f == register else f for f in self.fanins_of(consumer)]
            )
        for other in self.endpoints:
            if other is endpoint:
                continue
            if other.driver == register:
                other.driver = gate_copy

        # 3. The original endpoint (and its register) disappears.
        self.endpoints.remove(endpoint)
        self.set_fanins(register, [])
        return True

    def _register_vertex_of(self, endpoint: TimingEndpoint) -> Optional[int]:
        """The register (launch) vertex whose name matches the endpoint."""
        columns = self.columns()
        for vertex, (kind, name) in enumerate(zip(columns.kind.tolist(), columns.names)):
            if kind == KIND_REGISTER and name == endpoint.name:
                return vertex
        return None

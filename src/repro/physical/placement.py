"""Lightweight analytical placement (Innovus stand-in).

The paper only uses the physical design stage to show that the optimization
gains obtained at synthesis persist through placement and post-placement
optimization.  This module provides the minimum substrate to evaluate that
claim:

* :func:`place` assigns a 2-D location to every netlist vertex with a fast
  constructive + iterative-averaging placer (levelized x-coordinate, a few
  Gauss-Seidel sweeps pulling each cell toward the centroid of its
  neighbours, plus row legalization spreading),
* :func:`apply_wire_loads` converts Manhattan wire lengths into extra load
  capacitance on each driver, which is how placement affects timing,
* :func:`Placement.total_wirelength` / :func:`Placement.utilization` expose
  the usual placement QoR knobs for tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.sta.network import TimingNetwork


#: Wire capacitance per micron of Manhattan wirelength (fF/um).
WIRE_CAP_PER_UM = 0.16
#: Cell pitch used to derive the die size from the cell count (um).
CELL_PITCH = 1.4


@dataclass
class Placement:
    """Result of placing one netlist."""

    design: str
    positions: Dict[int, Tuple[float, float]]
    die_width: float
    die_height: float

    def wirelength(self, network: TimingNetwork, vertex_id: int) -> float:
        """Total Manhattan length of the nets driven by ``vertex_id``."""
        x0, y0 = self.positions[vertex_id]
        length = 0.0
        for consumer in network.fanouts()[vertex_id]:
            x1, y1 = self.positions[consumer]
            length += abs(x1 - x0) + abs(y1 - y0)
        return length

    def total_wirelength(self, network: TimingNetwork) -> float:
        """Half-perimeter-style total wirelength of the design (um)."""
        return sum(self.wirelength(network, v) for v in range(len(network)))

    def utilization(self, network: TimingNetwork) -> float:
        """Fraction of the die area occupied by cells."""
        cell_area = sum(cell.area for cell in network.vertex_cells() if cell is not None)
        die_area = self.die_width * self.die_height
        return cell_area / die_area if die_area > 0 else 0.0


def place(
    network: TimingNetwork,
    seed: int = 0,
    sweeps: int = 6,
) -> Placement:
    """Place ``network`` and return cell positions.

    The placer is deliberately simple but produces the behaviour that matters
    for timing: connected cells end up near each other, long combinational
    chains stretch across the die, and high-fanout drivers accumulate wire
    load.
    """
    rng = random.Random(seed)
    n = len(network)
    die_side = max(10.0, CELL_PITCH * math.sqrt(max(n, 1)) * 1.4)

    # Initial positions: x follows logic depth, y is random.
    depths = network.levels()
    max_depth = max(depths) or 1
    positions: Dict[int, Tuple[float, float]] = {}
    for vertex in range(n):
        x = die_side * (0.05 + 0.9 * depths[vertex] / max_depth)
        y = die_side * rng.random()
        positions[vertex] = (x, y)

    # Iterative refinement: move every movable cell toward the centroid of
    # its neighbours (fanins and fanouts), then re-spread to avoid clumping.
    fanouts = network.fanouts()
    neighbours_of = [network.fanins_of(vertex) + fanouts[vertex] for vertex in range(n)]
    for _ in range(sweeps):
        for vertex, neighbours in enumerate(neighbours_of):
            if not neighbours:
                continue
            cx = sum(positions[u][0] for u in neighbours) / len(neighbours)
            cy = sum(positions[u][1] for u in neighbours) / len(neighbours)
            old_x, old_y = positions[vertex]
            positions[vertex] = (0.5 * (old_x + cx), 0.5 * (old_y + cy))
        _spread(positions, die_side, rng)

    return Placement(
        design=network.name,
        positions=positions,
        die_width=die_side,
        die_height=die_side,
    )


def apply_wire_loads(network: TimingNetwork, placement: Placement) -> None:
    """Annotate every driver with the wire load implied by the placement."""
    lengths = [placement.wirelength(network, vertex) for vertex in range(len(network))]
    network.set_extra_load(slice(None), WIRE_CAP_PER_UM * np.array(lengths))


def clear_wire_loads(network: TimingNetwork) -> None:
    """Remove placement-derived wire loads (back to the synthesis view)."""
    network.set_extra_load(slice(None), 0.0)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _spread(
    positions: Dict[int, Tuple[float, float]], die_side: float, rng: random.Random
) -> None:
    """Jitter-and-clamp pass that keeps cells inside the die and un-clumped."""
    for vertex_id, (x, y) in positions.items():
        x += rng.uniform(-0.4, 0.4)
        y += rng.uniform(-0.4, 0.4)
        positions[vertex_id] = (
            min(max(x, 0.0), die_side),
            min(max(y, 0.0), die_side),
        )

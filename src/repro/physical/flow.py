"""Placement flow: placement, wire-load annotation and post-placement opt.

Reproduces the part of the paper's evaluation (Section 4.4, last paragraph)
showing that synthesis-stage optimization gains persist through placement and
post-placement timing optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.physical.placement import Placement, apply_wire_loads, place
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import STAReport, analyze
from repro.synth.netlist import Netlist
from repro.synth.optimizer import OptimizationTrace, SynthesisOptions, optimize


@dataclass
class PlacementResult:
    """Timing before placement, after placement and after post-placement opt."""

    design: str
    placement: Placement
    pre_placement: STAReport
    post_placement: STAReport
    post_optimization: STAReport
    trace: OptimizationTrace


def place_and_optimize(
    netlist: Netlist,
    clock: ClockConstraint,
    seed: int = 0,
    optimization_passes: int = 2,
) -> PlacementResult:
    """Place ``netlist``, annotate wire loads, and run post-placement opt.

    The netlist is modified in place (wire loads stay annotated and cells may
    be resized), mirroring how the physical tool owns the design after
    hand-off.
    """
    pre_placement = analyze(netlist, clock)

    placement = place(netlist, seed=seed)
    apply_wire_loads(netlist, placement)
    post_placement = analyze(netlist, clock)

    options = SynthesisOptions(
        effort_passes=optimization_passes,
        critical_fraction=0.08,
        area_recovery=False,
    )
    post_optimization, trace = optimize(netlist, clock, options)

    return PlacementResult(
        design=netlist.name,
        placement=placement,
        pre_placement=pre_placement,
        post_placement=post_placement,
        post_optimization=post_optimization,
        trace=trace,
    )

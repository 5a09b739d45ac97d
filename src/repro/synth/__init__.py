"""Logic synthesis substrate (Design Compiler stand-in)."""

from repro.liberty import Cell, Library, nangate45_like, pseudo_library
from repro.synth.netlist import Netlist, QoR
from repro.synth.mapper import map_to_netlist
from repro.synth.optimizer import (
    OptimizationTrace,
    PathGroup,
    SynthesisOptions,
    optimize,
)
from repro.synth.flow import SynthesisResult, synthesize, synthesize_bog

__all__ = [
    "Cell",
    "Library",
    "nangate45_like",
    "pseudo_library",
    "Netlist",
    "QoR",
    "map_to_netlist",
    "OptimizationTrace",
    "PathGroup",
    "SynthesisOptions",
    "optimize",
    "SynthesisResult",
    "synthesize",
    "synthesize_bog",
]

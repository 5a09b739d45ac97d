"""Static timing analysis substrate (PrimeTime stand-in plus pseudo-STA)."""

from repro.sta.constraints import ClockConstraint
from repro.sta.network import (
    TimingEndpoint,
    TimingNetwork,
    TimingVertex,
    VertexKind,
    from_bog,
)
from repro.sta.csr import AttributeColumns, CSRTimingGraph
from repro.sta.engine import (
    STA_KERNELS,
    EndpointTiming,
    STAReport,
    analyze,
    check_kernel,
    compute_loads,
)
from repro.sta.paths import (
    TimingPath,
    driving_launch_points,
    input_cone,
    path_arrival,
    path_cells,
    sample_random_path,
    trace_critical_path,
)

__all__ = [
    "ClockConstraint",
    "TimingEndpoint",
    "TimingNetwork",
    "TimingVertex",
    "VertexKind",
    "from_bog",
    "AttributeColumns",
    "CSRTimingGraph",
    "STA_KERNELS",
    "EndpointTiming",
    "STAReport",
    "analyze",
    "check_kernel",
    "compute_loads",
    "TimingPath",
    "driving_launch_points",
    "input_cone",
    "path_arrival",
    "path_cells",
    "sample_random_path",
    "trace_critical_path",
]

"""Static timing analysis engine.

A single-corner, setup-only STA over :class:`~repro.sta.network.TimingNetwork`
graphs.  It propagates arrival times and transition times (slews) in
topological order using the NLDM-style cell delay model of
:mod:`repro.liberty`, computes per-endpoint slack against a
:class:`~repro.sta.constraints.ClockConstraint`, and reports WNS / TNS —
the quantities PrimeTime provides in the paper's flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sta.constraints import ClockConstraint
from repro.sta.network import AttributeColumns, TimingNetwork, VertexKind

#: STA kernel backends: ``array`` (level-sweep numpy kernel over the
#: compiled CSR graph, used everywhere) and ``reference`` (the per-vertex
#: Python loop, kept for the ``array_vs_reference_sta`` oracle and the
#: tests).  The two are bit-identical by contract.
STA_KERNELS = ("array", "reference")


def check_kernel(kernel: str) -> str:
    """``kernel`` if it names an STA backend; ``ValueError`` otherwise."""
    if kernel not in STA_KERNELS:
        raise ValueError(f"unknown STA kernel {kernel!r}; choose one of {STA_KERNELS}")
    return kernel


@dataclass(slots=True)
class EndpointTiming:
    """Timing result at one endpoint."""

    name: str
    signal: str
    bit: int
    kind: str
    arrival: float
    slack: float
    driver: int

    @property
    def is_violated(self) -> bool:
        return self.slack < 0.0


@dataclass
class STAReport:
    """Complete result of one STA run."""

    design: str
    clock: ClockConstraint
    arrivals: np.ndarray
    slews: np.ndarray
    loads: np.ndarray
    endpoints: List[EndpointTiming]
    wns: float
    tns: float

    _by_name: Dict[str, EndpointTiming] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {e.name: e for e in self.endpoints}

    def endpoint(self, name: str) -> EndpointTiming:
        """Look up one endpoint's timing by bit-level name."""
        return self._by_name[name]

    def register_endpoints(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints if e.kind == "register"]

    def signal_slacks(self) -> Dict[str, float]:
        """Word-level signal name -> worst slack over its bits."""
        slacks: Dict[str, float] = {}
        for endpoint in self.endpoints:
            current = slacks.get(endpoint.signal)
            if current is None or endpoint.slack < current:
                slacks[endpoint.signal] = endpoint.slack
        return slacks

    def violated_endpoints(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints if e.is_violated]

    def summary(self) -> Dict[str, float]:
        return {
            "wns": self.wns,
            "tns": self.tns,
            "n_endpoints": float(len(self.endpoints)),
            "n_violated": float(len(self.violated_endpoints())),
            "max_arrival": float(max((e.arrival for e in self.endpoints), default=0.0)),
        }


class SlackReport(STAReport):
    """An :class:`STAReport` whose endpoint timings are built on first read.

    A what-if candidate's report: WNS and TNS come from an endpoint slack
    array, and the :class:`EndpointTiming` objects of the network's
    ``timing_endpoints`` are built from the arrivals only if someone reads
    :attr:`endpoints` (or looks one up by name).
    """

    def __init__(self, design: str, clock: ClockConstraint, timing_endpoints, arrivals, slews, loads, wns, tns):
        self.design = design
        self.clock = clock
        self.arrivals = arrivals
        self.slews = slews
        self.loads = loads
        self.wns = wns
        self.tns = tns
        self._timing_endpoints = timing_endpoints
        self._built: Optional[List[EndpointTiming]] = None
        self._names: Optional[Dict[str, EndpointTiming]] = None

    @property
    def endpoints(self) -> List[EndpointTiming]:
        if self._built is None:
            self._built = [
                endpoint_timing(endpoint, self.clock, self.arrivals)
                for endpoint in self._timing_endpoints
            ]
        return self._built

    @property
    def _by_name(self) -> Dict[str, EndpointTiming]:
        if self._names is None:
            self._names = {e.name: e for e in self.endpoints}
        return self._names


def compute_loads(network: TimingNetwork) -> np.ndarray:
    """Output load of every vertex: fanin pin caps of consumers plus wire load.

    The per-vertex reference of ``CSRTimingGraph.compute_loads``.
    """
    loads = np.zeros(len(network.vertices))
    for vertex in network.vertices:
        if vertex.cell is None:
            continue
        for fanin in vertex.fanins:
            loads[fanin] += vertex.cell.input_cap
    for endpoint in network.endpoints:
        loads[endpoint.driver] += endpoint.pin_capacitance
    for vertex in network.vertices:
        loads[vertex.id] += vertex.extra_load
    return loads


def propagate_vertex(vertex, clock: ClockConstraint, arrivals, slews, load) -> tuple:
    """The per-vertex NLDM update rule: (arrival, slew) given fanin state.

    This is the single source of truth for the timing recurrence of the
    reference :func:`analyze` sweep, the oracle the array kernel is checked
    against bit for bit.
    """
    if vertex.kind is VertexKind.CONST:
        return 0.0, clock.input_slew
    if vertex.kind is VertexKind.INPUT:
        return clock.input_delay, clock.input_slew
    if vertex.kind is VertexKind.REGISTER:
        cell = vertex.cell
        clk_to_q = cell.clk_to_q if cell is not None else 0.0
        resistance = cell.resistance if cell is not None else 0.0
        arrival = clk_to_q + resistance * load
        slew = cell.output_slew(load) if cell is not None else clock.input_slew
        return arrival, slew
    # Combinational gate.
    cell = vertex.cell
    assert cell is not None
    best = 0.0
    for fanin in vertex.fanins:
        candidate = arrivals[fanin] + vertex.derate * cell.delay(slews[fanin], load)
        if candidate > best:
            best = candidate
    return best, cell.output_slew(load)


def endpoint_timing(endpoint, clock: ClockConstraint, arrivals) -> EndpointTiming:
    """Slack of one endpoint under the given arrival state."""
    arrival = float(arrivals[endpoint.driver])
    required = clock.required_time(endpoint.setup_time)
    return EndpointTiming(
        name=endpoint.name,
        signal=endpoint.signal,
        bit=endpoint.bit,
        kind=endpoint.kind,
        arrival=arrival,
        slack=required - arrival,
        driver=endpoint.driver,
    )


def ordered_sum(values) -> float:
    """The float sum of ``values`` added one by one, left to right, from 0.0.

    Builtin ``sum`` of floats is compensated from Python 3.12 on and
    ``np.sum`` is pairwise, so neither gives the same float as a plain loop
    on every interpreter; ``np.cumsum`` adds strictly in order.  The
    ``0.0 +`` makes an all ``-0.0`` sum ``0.0``, as a loop from 0.0 has it.
    """
    values = np.asarray(values, dtype=np.float64)
    return float(0.0 + np.cumsum(values)[-1]) if values.size else 0.0


def summarize_slack_array(slacks: np.ndarray) -> tuple:
    """(WNS, TNS) over endpoint slacks in endpoint order; TNS is an :func:`ordered_sum`."""
    negative = slacks[slacks < 0.0]
    if not negative.size:
        return 0.0, 0.0
    return float(negative.min()), ordered_sum(negative)


def summarize_slacks(endpoints: Sequence[EndpointTiming]) -> tuple:
    """(WNS, TNS) over a list of endpoint timings."""
    slacks = np.fromiter((e.slack for e in endpoints), dtype=np.float64, count=len(endpoints))
    return summarize_slack_array(slacks)


def analyze(
    network: TimingNetwork,
    clock: ClockConstraint,
    loads: Optional[np.ndarray] = None,
    kernel: str = "array",
    cols: Optional[AttributeColumns] = None,
) -> STAReport:
    """Run setup STA on ``network`` against ``clock``.

    ``kernel`` selects the backend (see :data:`STA_KERNELS`).  Both produce
    bit-identical reports: the array path evaluates the same NLDM recurrence
    as :func:`propagate_vertex`, one whole level per numpy sweep.  ``cols``
    (array kernel only) stands in for the network's attribute columns, e.g. a
    what-if candidate's :meth:`~repro.incremental.patches.PatchPlan.columns`.
    """
    n = len(network)
    arrivals = np.zeros(n)
    slews = np.full(n, clock.input_slew)

    if check_kernel(kernel) == "array":
        compiled = network.compiled()
        if cols is None:
            cols = network.attribute_columns()
        if loads is None:
            loads = compiled.compute_loads(cols, network.endpoint_pins())
        compiled.sweep_all(cols, clock, arrivals, slews, loads)
    else:
        if cols is not None:
            raise ValueError("override columns are read by the array kernel only")
        if loads is None:
            loads = compute_loads(network)
        for vertex_id in network.topological_order():
            vertex = network.vertices[vertex_id]
            arrivals[vertex_id], slews[vertex_id] = propagate_vertex(
                vertex, clock, arrivals, slews, loads[vertex_id]
            )

    endpoints: List[EndpointTiming] = [
        endpoint_timing(endpoint, clock, arrivals) for endpoint in network.endpoints
    ]
    wns, tns = summarize_slacks(endpoints)

    return STAReport(
        design=network.name,
        clock=clock,
        arrivals=arrivals,
        slews=slews,
        loads=loads,
        endpoints=endpoints,
        wns=wns,
        tns=tns,
    )


def arrival_delay_of(
    network: TimingNetwork, report: STAReport, vertex_id: int, fanin: int
) -> float:
    """Delay contribution of edge ``fanin -> vertex`` under the analyzed state."""
    cell = network.cell_of(vertex_id)
    if cell is None:
        return 0.0
    return network.derate_of(vertex_id) * cell.delay(report.slews[fanin], report.loads[vertex_id])

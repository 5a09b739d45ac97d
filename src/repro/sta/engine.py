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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sta.constraints import ClockConstraint
from repro.sta.network import AttributeColumns, TimingEndpoint, TimingNetwork, VertexKind

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
    """Timing result at one endpoint: one row of an :class:`STAReport`."""

    name: str
    signal: str
    bit: int
    kind: str
    arrival: float
    slack: float
    driver: int


@dataclass
class STAReport:
    """Complete result of one STA run, held as columns.

    Per vertex: ``arrivals``, ``slews`` and ``loads``.  Per endpoint, in the
    network's endpoint order at analysis time: ``timing_endpoints`` (a
    snapshot of the network's :class:`~repro.sta.network.TimingEndpoint`
    objects, read for names, signals, bits and kinds only, because a later
    retiming move may rewrite their drivers), ``drivers``, ``required`` and
    ``slacks = required - arrivals[drivers]``.  WNS and TNS are
    :func:`summarize_slack_array` of ``slacks`` (see :meth:`of`).

    :attr:`endpoints` views the rows as :class:`EndpointTiming` objects,
    built from the report's own arrays on first read and never pickled.
    """

    design: str
    clock: ClockConstraint
    # The columns stay out of the repr: a failed assert on a report prints
    # its summary, not every array.
    arrivals: np.ndarray = field(repr=False)
    slews: np.ndarray = field(repr=False)
    loads: np.ndarray = field(repr=False)
    timing_endpoints: Tuple[TimingEndpoint, ...] = field(repr=False)
    drivers: np.ndarray = field(repr=False)
    required: np.ndarray = field(repr=False)
    slacks: np.ndarray = field(repr=False)
    wns: float
    tns: float

    @classmethod
    def of(cls, design, clock, arrivals, slews, loads, timing_endpoints, drivers, required):
        """The report of an analyzed state: endpoint slacks, WNS and TNS derived."""
        slacks = required - arrivals[drivers]
        wns, tns = summarize_slack_array(slacks)
        endpoints = tuple(timing_endpoints)
        return cls(design, clock, arrivals, slews, loads, endpoints, drivers, required, slacks, wns, tns)

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "_view"}

    @property
    def endpoints(self) -> List[EndpointTiming]:
        """Every endpoint's timing, in endpoint order (a view built on first read)."""
        view = self.__dict__.get("_view")
        if view is None:
            view = self._view = [
                EndpointTiming(e.name, e.signal, e.bit, e.kind, arrival, slack, driver)
                for e, arrival, slack, driver in zip(
                    self.timing_endpoints,
                    self.endpoint_arrivals().tolist(),
                    self.slacks.tolist(),
                    self.drivers.tolist(),
                )
            ]
        return view

    def endpoint(self, name: str) -> EndpointTiming:
        """Look up one endpoint's timing by bit-level name (the last of that name)."""
        for endpoint in reversed(self.endpoints):
            if endpoint.name == name:
                return endpoint
        raise KeyError(name)

    def register_endpoints(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints if e.kind == "register"]

    def endpoint_arrivals(self) -> np.ndarray:
        """Data arrival time at every endpoint, in endpoint order."""
        return self.arrivals[self.drivers]

    def register_mask(self) -> np.ndarray:
        """Which endpoints are register data pins (the rest are outputs)."""
        return np.array([e.kind == "register" for e in self.timing_endpoints], dtype=bool)

    def register_arrivals(self) -> Dict[str, float]:
        """Bit-level register endpoint name -> arrival (the last of a name wins)."""
        return {
            e.name: arrival
            for e, arrival in zip(self.timing_endpoints, self.endpoint_arrivals().tolist())
            if e.kind == "register"
        }

    def signal_slacks(self) -> Dict[str, float]:
        """Word-level signal name -> worst slack over its bits."""
        slacks: Dict[str, float] = {}
        for endpoint, slack in zip(self.timing_endpoints, self.slacks.tolist()):
            current = slacks.get(endpoint.signal)
            if current is None or slack < current:
                slacks[endpoint.signal] = slack
        return slacks

    def summary(self) -> Dict[str, float]:
        arrivals = self.endpoint_arrivals()
        return {
            "wns": self.wns,
            "tns": self.tns,
            "n_endpoints": float(len(self.drivers)),
            "n_violated": float(np.count_nonzero(self.slacks < 0.0)),
            "max_arrival": float(arrivals.max()) if arrivals.size else 0.0,
        }


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
    pins = network.endpoint_pins()

    if check_kernel(kernel) == "array":
        compiled = network.compiled()
        if cols is None:
            cols = network.attribute_columns()
        if loads is None:
            loads = compiled.compute_loads(cols, pins)
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

    endpoints = network.endpoints
    required = np.fromiter(
        (clock.required_time(e.setup_time) for e in endpoints),
        dtype=np.float64,
        count=len(endpoints),
    )
    return STAReport.of(network.name, clock, arrivals, slews, loads, endpoints, pins[0], required)


def arrival_delay_of(
    network: TimingNetwork, report: STAReport, vertex_id: int, fanin: int
) -> float:
    """Delay contribution of edge ``fanin -> vertex`` under the analyzed state."""
    cell = network.cell_of(vertex_id)
    if cell is None:
        return 0.0
    return network.derate_of(vertex_id) * cell.delay(report.slews[fanin], report.loads[vertex_id])

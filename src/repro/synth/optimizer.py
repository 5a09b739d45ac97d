"""Timing-driven netlist optimization.

Stands in for the optimization phase of a commercial synthesis tool.  The
behaviour the reproduction needs is:

* a **default flow** that concentrates its effort on the most critical
  endpoints only — which is why, in the paper, large TNS headroom remains at
  the non-worst endpoints (Fig. 4, "default tool"),
* a **path-grouping flow** (``group_path``): endpoints are partitioned into
  named groups and every group receives its own optimization budget, which
  improves TNS without necessarily improving WNS,
* a **retiming flow** (``retime``): selected critical registers are moved
  backward across their driving gate to balance pipeline stages, which is the
  lever for WNS,
* **area recovery** that downsizes cells with large positive slack so power
  and area stay roughly neutral.

All of these operate on the mapped :class:`~repro.synth.netlist.Netlist` via
cell sizing and structural retiming moves, with full STA between passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.sta.constraints import ClockConstraint
from repro.sta.csr import KIND_GATE
from repro.sta.engine import STAReport, analyze
from repro.sta.paths import trace_critical_path
from repro.synth.netlist import Netlist


@dataclass
class PathGroup:
    """One ``group_path`` directive: a named group of endpoint signals."""

    name: str
    signals: List[str]
    weight: float = 1.0


@dataclass
class SynthesisOptions:
    """Options controlling the optimization flow.

    The default values correspond to the "default synthesis" flow of the
    paper; the prediction-driven flow sets ``path_groups`` (four criticality
    groups) and ``retime_signals`` (top ~5% critical signals).
    """

    effort_passes: int = 3
    critical_fraction: float = 0.05
    path_groups: Optional[List[PathGroup]] = None
    group_effort_passes: int = 2
    retime_signals: Optional[List[str]] = None
    area_recovery: bool = True
    area_recovery_slack_fraction: float = 0.35
    seed: int = 1

    @property
    def uses_grouping(self) -> bool:
        return bool(self.path_groups)

    @property
    def uses_retiming(self) -> bool:
        return bool(self.retime_signals)


@dataclass
class OptimizationTrace:
    """Record of what the optimizer did (used by tests and runtime analysis)."""

    passes: int = 0
    upsized: int = 0
    downsized: int = 0
    retimed: int = 0
    wns_history: List[float] = field(default_factory=list)
    tns_history: List[float] = field(default_factory=list)


def optimize(
    netlist: Netlist,
    clock: ClockConstraint,
    options: Optional[SynthesisOptions] = None,
) -> tuple[STAReport, OptimizationTrace]:
    """Optimize ``netlist`` in place and return the final STA report."""
    options = options or SynthesisOptions()
    trace = OptimizationTrace()

    report = analyze(netlist, clock)
    trace.wns_history.append(report.wns)
    trace.tns_history.append(report.tns)

    # 1. Retiming first (structural), restricted to the requested signals.
    if options.uses_retiming:
        report = _retime_signals(netlist, clock, options.retime_signals or [], report, trace)

    # 2. Critical-path sizing.  Without grouping, only the globally worst
    #    endpoints receive attention; with grouping, every group gets its own
    #    budget of passes.
    if options.uses_grouping:
        for _ in range(options.group_effort_passes):
            for group in options.path_groups or []:
                targets = group_endpoints(report, group.signals, options.critical_fraction)
                report = _sizing_pass(netlist, clock, report, targets, trace)
    for _ in range(options.effort_passes):
        targets = _worst_endpoints(report, options.critical_fraction)
        report = _sizing_pass(netlist, clock, report, targets, trace)

    # 3. Area / power recovery on clearly non-critical cells.
    if options.area_recovery:
        report = _area_recovery(netlist, clock, report, options, trace)

    trace.wns_history.append(report.wns)
    trace.tns_history.append(report.tns)
    return report, trace


# ---------------------------------------------------------------------------
# Endpoint selection
# ---------------------------------------------------------------------------


def _worst_endpoints(report: STAReport, fraction: float) -> List[str]:
    """Names of the worst-slack endpoints (at least one); equal slacks keep endpoint order."""
    ordered = np.argsort(report.slacks, kind="stable")
    count = max(1, int(len(ordered) * fraction))
    return [report.timing_endpoints[i].name for i in ordered[:count].tolist()]


def group_endpoints(report: STAReport, signals: Sequence[str], fraction: float) -> List[str]:
    """Worst endpoints restricted to the signals of one path group.

    Shared with the incremental what-if projection
    (:mod:`repro.incremental.whatif`), which must target exactly the
    endpoints a real ``group_path`` run would size.
    """
    wanted = set(signals)
    endpoints = report.timing_endpoints
    members = np.array([i for i, e in enumerate(endpoints) if e.signal in wanted], dtype=np.int64)
    members = members[np.argsort(report.slacks[members], kind="stable")]
    return [endpoints[i].name for i in members[: group_target_count(len(members), fraction)].tolist()]


def group_target_count(n_members: int, fraction: float) -> int:
    """How many of a group's worst-slack members its sizing budget targets.

    The worst ``max(fraction, 0.25)`` share, at least one member.
    """
    return max(1, int(n_members * max(fraction, 0.25))) if n_members else 0


# ---------------------------------------------------------------------------
# Sizing
# ---------------------------------------------------------------------------


def _sizing_pass(
    netlist: Netlist,
    clock: ClockConstraint,
    report: STAReport,
    endpoint_names: Sequence[str],
    trace: OptimizationTrace,
) -> STAReport:
    """Upsize cells along the critical paths of the selected endpoints."""
    if not endpoint_names:
        return report
    kinds = netlist.kinds().tolist()
    touched: Set[int] = set()
    for name in endpoint_names:
        try:
            path = trace_critical_path(netlist, report, name)
        except StopIteration:  # endpoint removed by retiming
            continue
        for vertex_id in path.vertices:
            if kinds[vertex_id] != KIND_GATE or vertex_id in touched:
                continue
            if netlist.upsize(vertex_id):
                touched.add(vertex_id)
                trace.upsized += 1
    trace.passes += 1
    if not touched:
        return report
    return analyze(netlist, clock)


def _area_recovery(
    netlist: Netlist,
    clock: ClockConstraint,
    report: STAReport,
    options: SynthesisOptions,
    trace: OptimizationTrace,
) -> STAReport:
    """Downsize cells that only feed endpoints with ample positive slack."""
    slack_threshold = options.area_recovery_slack_fraction * clock.period
    # Worst endpoint slack reachable from every vertex (reverse propagation).
    worst_downstream = _worst_downstream_slack(netlist, report)
    wns_before = report.wns
    downsized: List[int] = []
    for vertex in np.flatnonzero(netlist.kinds() == KIND_GATE).tolist():
        if worst_downstream.get(vertex, 0.0) >= slack_threshold:
            if netlist.downsize(vertex):
                downsized.append(vertex)
    if not downsized:
        return report
    new_report = analyze(netlist, clock)
    if new_report.wns < wns_before - 1.0:
        # Too aggressive: undo the recovery entirely.
        for vertex_id in downsized:
            netlist.upsize(vertex_id)
        return analyze(netlist, clock)
    trace.downsized += len(downsized)
    return new_report


def _worst_downstream_slack(netlist: Netlist, report: STAReport) -> Dict[int, float]:
    """Worst endpoint slack in the transitive fanout of each vertex."""
    slack_of = dict(zip((e.name for e in report.timing_endpoints), report.slacks.tolist()))
    worst: Dict[int, float] = {}
    for endpoint in netlist.endpoints:
        slack = slack_of.get(endpoint.name)
        if slack is None:
            continue
        current = worst.get(endpoint.driver)
        if current is None or slack < current:
            worst[endpoint.driver] = slack
    # Propagate backwards in reverse topological order.
    compiled = netlist.compiled()
    indptr, indices = compiled.fanin_indptr.tolist(), compiled.fanin_indices.tolist()
    for vertex_id in reversed(netlist.topological_order()):
        value = worst.get(vertex_id)
        if value is None:
            continue
        for fanin in indices[indptr[vertex_id] : indptr[vertex_id + 1]]:
            current = worst.get(fanin)
            if current is None or value < current:
                worst[fanin] = value
    return worst


# ---------------------------------------------------------------------------
# Retiming
# ---------------------------------------------------------------------------


def _retime_signals(
    netlist: Netlist,
    clock: ClockConstraint,
    signals: Sequence[str],
    report: STAReport,
    trace: OptimizationTrace,
) -> STAReport:
    """Retime the worst violating bit endpoint of each selected signal.

    A structural move has no cheap undo, so every move is kept, even one
    after which a downstream stage becomes critical and design WNS degrades:
    the commercial tool behaves the same, which the paper reports as
    "non-optimized" cases.
    """
    for signal in signals:
        endpoints = report.timing_endpoints
        bits = [i for i, e in enumerate(endpoints) if e.signal == signal and e.kind == "register"]
        if not bits:
            continue
        worst_bit = bits[int(np.argmin(report.slacks[bits]))]
        if report.slacks[worst_bit] >= 0:
            continue
        if not netlist.retime_endpoint_backward(endpoints[worst_bit].name):
            continue
        report = analyze(netlist, clock)
        trace.retimed += 1
    return report

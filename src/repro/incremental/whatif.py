"""What-if evaluation of synthesis option sets via incremental re-timing.

``run_optimization_experiment`` answers "what does this option set buy?" by
re-synthesizing the whole design — minutes of work per candidate.  This
module answers the same question approximately in milliseconds: it projects
the *local* effect each directive has on the already-synthesized baseline
netlist as a patch set and re-times only the affected cone with
:class:`~repro.incremental.engine.IncrementalSTA`:

* ``retime`` on a signal — the optimizer moves the endpoint register across
  its driving gate, rebalancing the stage; projected as a derate reduction
  on the gate driving the signal's worst bit,
* ``group_path`` budgets — every group gets its own sizing passes; projected
  as drive-strength upsizes (:class:`SwapCell`) along the critical paths of
  each group's worst endpoints,
* the least-critical group cedes effort to area recovery; projected as a
  small extra wire load on its ample-slack endpoints.

The projection is a *ranking* model, not a QoR oracle: estimates are used to
order K candidate option sets so only the most promising one pays for a full
re-synthesis (see :func:`repro.core.optimize.run_optimization_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.incremental.engine import IncrementalSTA, PropagationStats
from repro.incremental.patches import AddExtraLoad, SetDerate, SwapCell, TimingPatch
from repro.sta.engine import STAReport
from repro.sta.network import VertexKind
from repro.sta.paths import trace_critical_path
from repro.synth.netlist import Netlist
from repro.synth.optimizer import SynthesisOptions, group_endpoints


#: Derate applied to the driving gate of a retimed signal's worst bit
#: (models the register absorbing part of the stage delay).
RETIME_DERATE = 0.6
#: Extra wire load (fF) modelling area recovery on the least-critical group.
RELAX_LOAD_FF = 2.0
#: Slack threshold (fraction of the clock period) above which an endpoint
#: is considered a safe area-recovery victim.
RELAX_SLACK_FRACTION = 0.35


@dataclass
class WhatIfEstimate:
    """Projected timing of one candidate option set.

    ``report`` is only populated when :func:`evaluate_candidates` is asked
    to keep full reports — a sweep only needs wns/tns, and a report holds
    three vertex-sized arrays that would otherwise stay alive as long as
    the estimate does.
    """

    options: SynthesisOptions
    wns: float
    tns: float
    n_patches: int
    stats: Optional[PropagationStats] = None
    report: Optional[STAReport] = field(default=None, repr=False)

    def as_row(self) -> Dict[str, float]:
        return {
            "wns": self.wns,
            "tns": self.tns,
            "n_patches": float(self.n_patches),
            "cone_fraction": self.stats.cone_fraction if self.stats else 0.0,
        }


def patches_for_options(
    netlist: Netlist,
    report: STAReport,
    options: SynthesisOptions,
    path_cache: Optional[Dict[str, object]] = None,
) -> List[TimingPatch]:
    """Project one option set onto the baseline netlist as a patch list.

    ``path_cache`` memoizes critical-path traces by endpoint name; the
    baseline report is frozen during a sweep, so a shared dict lets K
    candidates trace each endpoint once instead of K times.
    """
    patches: List[TimingPatch] = []
    planned_cells: Dict[int, object] = {}

    # -- retime: derate the gate driving each retimed signal's worst bit.
    derated: Dict[int, float] = {}
    for signal in options.retime_signals or []:
        bits = [e for e in report.endpoints if e.signal == signal and e.kind == "register"]
        if not bits:
            continue
        worst = min(bits, key=lambda e: e.slack)
        if worst.slack >= 0:
            continue
        driver = netlist.vertices[worst.driver]
        if driver.kind is not VertexKind.GATE or driver.id in derated:
            continue
        derated[driver.id] = driver.derate * RETIME_DERATE
    patches.extend(SetDerate(vertex, derate) for vertex, derate in derated.items())

    # -- group_path: upsize along each group's worst critical paths, one
    #    drive step per budget pass.  The endpoint selection is the
    #    optimizer's own (``group_endpoints``), so the projection sizes
    #    exactly the endpoints a real ``group_path`` run would.
    groups = options.path_groups or []
    for group in groups:
        targets = group_endpoints(report, group.signals, options.critical_fraction)
        for _ in range(options.group_effort_passes):
            for name in targets:
                path = path_cache.get(name) if path_cache is not None else None
                if path is None:
                    path = trace_critical_path(netlist, report, name)
                    if path_cache is not None:
                        path_cache[name] = path
                for vertex_id in path.vertices:
                    vertex = netlist.vertices[vertex_id]
                    if vertex.kind is not VertexKind.GATE:
                        continue
                    current = planned_cells.get(vertex_id, vertex.cell)
                    stronger = netlist.library.upsize(current)
                    if stronger is not None:
                        planned_cells[vertex_id] = stronger
    patches.extend(
        SwapCell(vertex_id, cell)
        for vertex_id, cell in planned_cells.items()
        if cell is not netlist.vertices[vertex_id].cell
    )

    # -- area recovery on the least-critical group: its ample-slack nets get
    #    slightly heavier (downsized drivers upstream -> more RC per fF).
    if groups:
        relax_threshold = RELAX_SLACK_FRACTION * report.clock.period
        relaxed: set = set()
        wanted = set(groups[-1].signals)
        for endpoint in report.endpoints:
            if endpoint.signal not in wanted or endpoint.slack < relax_threshold:
                continue
            driver = endpoint.driver
            if driver in relaxed or driver in planned_cells or driver in derated:
                continue
            relaxed.add(driver)
            patches.append(AddExtraLoad(driver, RELAX_LOAD_FF))

    return patches


def evaluate_candidates(
    record,
    candidates: Sequence[SynthesisOptions],
    engine: Optional[IncrementalSTA] = None,
    keep_reports: bool = False,
) -> List[WhatIfEstimate]:
    """Project every candidate option set against ``record``'s baseline run.

    ``record`` is a :class:`~repro.core.dataset.DesignRecord`; its default-
    options synthesis (netlist + report, already consistent with
    ``record.clock``) is the shared frozen baseline.  The baseline netlist
    is patched and reverted in place, never copied: K candidates cost K
    small dirty cones instead of K re-syntheses.  Pass ``keep_reports=True``
    to retain each candidate's full projected :class:`STAReport` for
    endpoint-level inspection.
    """
    netlist = record.synthesis.netlist
    engine = engine or IncrementalSTA(netlist, record.clock, baseline=record.synthesis.report)
    baseline = engine.report()
    path_cache: Dict[str, object] = {}
    estimates: List[WhatIfEstimate] = []
    for options in candidates:
        patches = patches_for_options(netlist, baseline, options, path_cache=path_cache)
        if not patches:
            estimates.append(
                WhatIfEstimate(
                    options=options,
                    wns=baseline.wns,
                    tns=baseline.tns,
                    n_patches=0,
                    report=baseline if keep_reports else None,
                )
            )
            continue
        with engine.what_if(patches) as projected:
            estimates.append(
                WhatIfEstimate(
                    options=options,
                    wns=projected.wns,
                    tns=projected.tns,
                    n_patches=len(patches),
                    stats=engine.last_stats,
                    report=projected if keep_reports else None,
                )
            )
    return estimates

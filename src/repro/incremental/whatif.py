"""What-if evaluation of synthesis option sets via incremental re-timing.

``run_optimization_experiment`` answers "what does this option set buy?" by
re-synthesizing the whole design — minutes of work per candidate.  This
module answers the same question approximately in milliseconds: it projects
the *local* effect each directive has on the already-synthesized baseline
netlist as a patch set and re-times the patched netlist with
:class:`~repro.incremental.engine.IncrementalSTA`:

* ``retime`` on a signal — the optimizer moves the endpoint register across
  its driving gate, rebalancing the stage; projected as a derate reduction
  on the gate driving the signal's worst bit,
* ``group_path`` budgets — every group gets its own sizing passes; projected
  as drive-strength upsizes (:class:`SwapCell`) along the critical paths of
  each group's worst endpoints, read from one :func:`critical_path_table`
  of the frozen baseline,
* the least-critical group cedes effort to area recovery; projected as a
  small extra wire load on its ample-slack endpoints.

The projection is a *ranking* model, not a QoR oracle: estimates are used to
order K candidate option sets so only the most promising one pays for a full
re-synthesis (see :func:`repro.core.optimize.run_optimization_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.incremental.engine import IncrementalSTA, PropagationStats
from repro.incremental.patches import AddExtraLoad, SetDerate, SwapCell, TimingPatch
from repro.sta.csr import KIND_GATE
from repro.sta.engine import STAReport
from repro.sta.paths import trace_critical_paths
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
    """Projected timing of one candidate option set."""

    options: SynthesisOptions
    wns: float
    tns: float
    n_patches: int
    stats: Optional[PropagationStats] = None

    def as_row(self) -> Dict[str, float]:
        return {
            "wns": self.wns,
            "tns": self.tns,
            "n_patches": float(self.n_patches),
            "cone_fraction": self.stats.cone_fraction if self.stats else 0.0,
        }


def critical_path_table(netlist: Netlist, report: STAReport) -> Dict[str, List[int]]:
    """The slowest-path vertex list of every endpoint name of a baseline run.

    One array trace (:func:`~repro.sta.paths.trace_critical_paths`) covers
    every endpoint; the first endpoint of a name wins, as in
    :func:`~repro.sta.paths.trace_critical_path`.  The table holds as long
    as ``netlist`` and ``report`` stay frozen, so K candidates share one.
    """
    endpoints = netlist.endpoints
    walks = trace_critical_paths(netlist, report, [e.driver for e in endpoints])
    table: Dict[str, List[int]] = {}
    for endpoint, walk in zip(endpoints, walks):
        table.setdefault(endpoint.name, walk)
    return table


def patches_for_options(
    netlist: Netlist,
    report: STAReport,
    options: SynthesisOptions,
    paths: Optional[Dict[str, List[int]]] = None,
) -> List[TimingPatch]:
    """Project one option set onto the baseline netlist as a patch list.

    ``paths`` is the baseline's :func:`critical_path_table`; it is built
    here when not given.
    """
    patches: List[TimingPatch] = []
    planned_cells: Dict[int, object] = {}

    # -- retime: derate the gate driving each retimed signal's worst bit.
    kinds = netlist.kinds().tolist()
    derated: Dict[int, float] = {}
    for signal in options.retime_signals or []:
        bits = [e for e in report.endpoints if e.signal == signal and e.kind == "register"]
        if not bits:
            continue
        worst = min(bits, key=lambda e: e.slack)
        if worst.slack >= 0:
            continue
        driver = worst.driver
        if kinds[driver] != KIND_GATE or driver in derated:
            continue
        derated[driver] = float(netlist.derate_of(driver)) * RETIME_DERATE
    patches.extend(SetDerate(vertex, derate) for vertex, derate in derated.items())

    # -- group_path: upsize along each group's worst critical paths, one
    #    drive step per budget pass.  The endpoint selection is the
    #    optimizer's own (``group_endpoints``), so the projection sizes
    #    exactly the endpoints a real ``group_path`` run would.
    groups = options.path_groups or []
    if groups and paths is None:
        paths = critical_path_table(netlist, report)
    upsized: Dict[int, object] = {}  # id(cell) -> its next stronger drive
    for group in groups:
        targets = group_endpoints(report, group.signals, options.critical_fraction)
        for _ in range(options.group_effort_passes):
            for name in targets:
                for vertex_id in paths[name]:
                    if kinds[vertex_id] != KIND_GATE:
                        continue
                    current = planned_cells.get(vertex_id) or netlist.cell_of(vertex_id)
                    if id(current) not in upsized:
                        upsized[id(current)] = netlist.library.upsize(current)
                    stronger = upsized[id(current)]
                    if stronger is not None:
                        planned_cells[vertex_id] = stronger
    patches.extend(
        SwapCell(vertex_id, cell)
        for vertex_id, cell in planned_cells.items()
        if cell is not netlist.cell_of(vertex_id)
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


def estimate_candidate(
    engine: IncrementalSTA, options: SynthesisOptions, patches: Sequence[TimingPatch]
) -> WhatIfEstimate:
    """Score one candidate's patch set against ``engine``'s frozen baseline.

    An empty patch set scores as the baseline itself, with no stats.
    """
    with engine.what_if(patches) as projected:
        return WhatIfEstimate(
            options=options,
            wns=projected.wns,
            tns=projected.tns,
            n_patches=len(patches),
            stats=engine.last_stats,
        )


def evaluate_candidates(record, candidates: Sequence[SynthesisOptions]) -> List[WhatIfEstimate]:
    """Project every candidate option set against ``record``'s baseline run.

    ``record`` is a :class:`~repro.core.dataset.DesignRecord`; its default-
    options synthesis (netlist + report, already consistent with
    ``record.clock``) is the shared frozen baseline.  The baseline netlist
    is patched and reverted in place, never copied, and its critical paths
    are traced once: K candidates cost K array re-timings instead of K
    re-syntheses.
    """
    netlist = record.synthesis.netlist
    engine = IncrementalSTA(netlist, record.clock, baseline=record.synthesis.report)
    baseline = engine.report()
    paths = critical_path_table(netlist, baseline)
    return [
        estimate_candidate(engine, options, patches_for_options(netlist, baseline, options, paths))
        for options in candidates
    ]

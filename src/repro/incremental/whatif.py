"""What-if evaluation of synthesis option sets via incremental re-timing.

``run_optimization_experiment`` answers "what does this option set buy?" by
re-synthesizing the whole design — minutes of work per candidate.  This
module answers the same question approximately in milliseconds: it projects
the *local* effect each directive has on the already-synthesized baseline
netlist as a :class:`~repro.incremental.patches.PatchPlan` (patches as
arrays) and re-times the netlist on the plan's override columns with
:class:`~repro.incremental.engine.IncrementalSTA`:

* ``retime`` on a signal — the optimizer moves the endpoint register across
  its driving gate, rebalancing the stage; projected as a derate reduction
  on the gate driving the signal's worst bit,
* ``group_path`` budgets — every group gets its own sizing passes; projected
  as drive-strength upsizes (cell swaps) along the critical paths of each
  group's worst endpoints, traced once on the frozen baseline,
* the least-critical group cedes effort to area recovery; projected as a
  small extra wire load on its ample-slack endpoints.

Everything the candidates of one baseline share — the engine, the path
table, the upsize map of the cell table — is one :class:`WhatIfPlan`, built
once and kept on the netlist until it is edited (:func:`whatif_plan`), so
every ``/whatif`` on a hot record reuses it.

The projection is a *ranking* model, not a QoR oracle: estimates are used to
order K candidate option sets so only the most promising one pays for a full
re-synthesis (see :func:`repro.core.optimize.run_optimization_sweep`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.incremental.engine import IncrementalSTA, PropagationStats
from repro.incremental.patches import PatchPlan
from repro.runtime import report as report_mod
from repro.sta.constraints import ClockConstraint
from repro.sta.csr import KIND_GATE
from repro.sta.engine import STAReport, ordered_sum
from repro.sta.network import cell_table_column
from repro.sta.paths import trace_critical_paths
from repro.synth.netlist import Netlist
from repro.synth.optimizer import SynthesisOptions, group_target_count


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


class WhatIfPlan:
    """What every candidate of one frozen baseline ``(netlist, clock, report)`` shares.

    The :class:`~repro.incremental.engine.IncrementalSTA`; every baseline
    endpoint's critical path (one :func:`~repro.sta.paths.trace_critical_paths`
    call over the report's ``drivers``) as a padded matrix of its gates; the
    cell table extended by every cell a gate can be upsized to, with the row
    each row reaches after k upsize steps (saturating at the strongest
    drive); the per-row parameter and area tables; and the baseline
    endpoints' signals, with the report's ``slacks`` and ``drivers``.
    :meth:`project` turns an option set into a
    :class:`~repro.incremental.patches.PatchPlan` with array passes over
    these.  :func:`whatif_plan` keeps one per netlist.
    """

    def __init__(self, netlist: Netlist, clock: ClockConstraint, report: STAReport):
        self.clock = clock
        #: The report this plan was built for (its cache key, with ``clock``).
        self.baseline = report
        # The netlist keeps its plan, so the plan reaches the netlist only
        # through a weak proxy: a dropped record is freed at once, not left
        # to the cycle collector.
        self.engine = IncrementalSTA(weakref.proxy(netlist), clock, baseline=report)
        report = self.engine.report()
        self.period = float(report.clock.period)
        cols = netlist.attribute_columns()
        self.base_rows = cols.cell_row
        self.base_derate = cols.derate
        self.is_gate = netlist.kinds() == KIND_GATE

        # The upsize map (a row with no stronger drive maps to itself),
        # closed over every cell a gate can be stepped to.
        self.cells = list(cols.cells)
        rows = {id(cell): row for row, cell in enumerate(self.cells)}
        upsize = list(range(len(self.cells)))
        pending = np.unique(self.base_rows[self.is_gate]).tolist()
        while pending:
            row = pending.pop()
            stronger = netlist.library.upsize(self.cells[row])
            if stronger is None or upsize[row] != row:
                continue  # the strongest drive, or a row already mapped
            if id(stronger) not in rows:
                rows[id(stronger)] = len(self.cells)
                self.cells.append(stronger)
                upsize.append(len(upsize))
            upsize[row] = rows[id(stronger)]
            pending.append(upsize[row])
        # Row after k upsize steps (k = 0 .. the longest chain), so a gate
        # stepped k times moves to upsized[min(k, max_steps), row].
        stepped = [np.arange(len(upsize), dtype=np.int32)]
        while (stepped[-1][upsize] != stepped[-1]).any():
            stepped.append(stepped[-1][upsize])
        self.upsized = np.stack(stepped)
        self.max_steps = len(stepped) - 1
        self.tables: Dict[str, np.ndarray] = {}
        self.area = cell_table_column(self.cells, "area")

        # Baseline endpoints, in report order, with their critical paths' gates.
        endpoints = report.timing_endpoints
        codes: Dict[str, int] = {}
        self.signal_codes = codes
        self.endpoint_signal = np.array(
            [codes.setdefault(e.signal, len(codes)) for e in endpoints], dtype=np.int64
        )
        self.endpoint_slack = report.slacks
        self.endpoint_driver = report.drivers
        #: Endpoints by slack, worst first; equal slacks keep endpoint order.
        self.by_slack = np.argsort(self.endpoint_slack, kind="stable")
        self.worst_register: Dict[str, Tuple[float, int]] = {}
        for e, slack, driver in zip(endpoints, report.slacks.tolist(), report.drivers.tolist()):
            worst = self.worst_register.get(e.signal)
            if e.kind == "register" and (worst is None or slack < worst[0]):
                self.worst_register[e.signal] = (slack, driver)
        # Row i: the gates of endpoint i's critical path, launch point first, -1 padded.
        walks = trace_critical_paths(netlist, report, report.drivers)
        flat = np.fromiter(chain.from_iterable(walks), dtype=np.int64)
        gate = self.is_gate[flat]
        owner = np.repeat(np.arange(len(walks)), [len(walk) for walk in walks])[gate]
        lengths = np.bincount(owner, minlength=len(walks))
        starts = np.cumsum(lengths) - lengths
        self.paths = np.full((len(walks), lengths.max(initial=0)), -1, dtype=np.int64)
        self.paths[owner, np.arange(len(owner)) - starts[owner]] = flat[gate]
        report_mod.incr("incremental_plan_builds")

    def _members(self, signals: Sequence[str]) -> np.ndarray:
        """Mask of the baseline endpoints whose signal is in ``signals``."""
        wanted = np.zeros(len(self.signal_codes), dtype=bool)
        wanted[[self.signal_codes[s] for s in signals if s in self.signal_codes]] = True
        return wanted[self.endpoint_signal]

    def project(self, options: SynthesisOptions) -> PatchPlan:
        """Project one option set onto the baseline as a patch plan.

        Derates come first (in retime-signal order), then cell swaps (in the
        order the group paths first touch their vertices), then extra loads
        (in endpoint order).
        """
        # -- retime: derate the gate driving each retimed signal's worst bit.
        derated: Dict[int, float] = {}
        for signal in options.retime_signals or []:
            worst = self.worst_register.get(signal)
            if worst is None or worst[0] >= 0:
                continue
            driver = worst[1]
            if not self.is_gate[driver] or driver in derated:
                continue
            derated[driver] = float(self.base_derate[driver]) * RETIME_DERATE
        derate_vertices = np.fromiter(derated, dtype=np.int64, count=len(derated))

        # -- group_path: every budget pass steps each gate on each of a
        #    group's target paths one drive up (saturating), once per
        #    occurrence.  The targets are the optimizer's own (its stable
        #    slack order and ``group_target_count``), so the projection sizes
        #    exactly the endpoints a real ``group_path`` run would.
        groups = options.path_groups or []
        swap_vertices = swap_rows = load_vertices = np.empty(0, dtype=np.int64)
        if groups:
            n = len(self.is_gate)
            targets = []
            for group in groups:
                ranked = self.by_slack[self._members(group.signals)[self.by_slack]]
                targets.append(ranked[: group_target_count(len(ranked), options.critical_fraction)])
            touched = self.paths[np.concatenate(targets)].ravel()
            touched = touched[touched >= 0]
            steps = np.bincount(touched, minlength=n) * options.group_effort_passes
            vertices = first_occurrences(touched, n)
            rows = self.base_rows[vertices]
            upsized = self.upsized[np.minimum(steps[vertices], self.max_steps), rows]
            moved = upsized != rows
            swap_vertices, swap_rows = vertices[moved], upsized[moved]

            # -- area recovery on the least-critical group: its ample-slack
            #    nets get slightly heavier (downsized drivers upstream -> more
            #    RC per fF).
            relaxed = self._members(groups[-1].signals) & ~(
                self.endpoint_slack < RELAX_SLACK_FRACTION * self.period
            )
            drivers = first_occurrences(self.endpoint_driver[relaxed], n)
            taken = np.zeros(n, dtype=bool)
            taken[swap_vertices] = True
            taken[derate_vertices] = True
            load_vertices = drivers[~taken[drivers]]

        return PatchPlan(
            cells=self.cells,
            tables=self.tables,
            derate_vertices=derate_vertices,
            derates=np.fromiter(derated.values(), dtype=np.float64, count=len(derated)),
            swap_vertices=swap_vertices,
            swap_rows=swap_rows,
            load_vertices=load_vertices,
            load_deltas=np.full(len(load_vertices), RELAX_LOAD_FF),
        )

    def area_delta(self, patches: PatchPlan) -> float:
        """Cell area ``patches`` add to the baseline, summed in swap order.

        Derates and extra loads are area-neutral.
        """
        swapped = self.area[patches.swap_rows] - self.area[self.base_rows[patches.swap_vertices]]
        return ordered_sum(swapped)


def first_occurrences(ids: np.ndarray, n: int) -> np.ndarray:
    """The distinct values of ``ids`` (each in ``[0, n)``) in the order they first occur."""
    positions = np.arange(len(ids))
    first = np.full(n, len(ids))
    np.minimum.at(first, ids, positions)
    return ids[first[ids] == positions]


def whatif_plan(netlist: Netlist, clock: ClockConstraint, report: STAReport) -> WhatIfPlan:
    """The :class:`WhatIfPlan` of ``netlist`` as the baseline ``(clock, report)``.

    It is kept on the netlist, so every what-if on a frozen baseline shares
    one; any write to the netlist drops it, and pickles never carry it.
    Two threads that find no plan at once may both build one; both are
    equal and the last one stays.
    """
    plan = netlist._whatif_plan
    if plan is None or plan.baseline is not report or plan.clock != clock:
        plan = netlist._whatif_plan = WhatIfPlan(netlist, clock, report)
    return plan


def patches_for_options(
    netlist: Netlist, report: STAReport, options: SynthesisOptions
) -> PatchPlan:
    """Project one option set onto the baseline ``(netlist, report)`` (:meth:`WhatIfPlan.project`)."""
    return whatif_plan(netlist, report.clock, report).project(options)


def estimate_candidate(
    engine: IncrementalSTA, options: SynthesisOptions, patches: PatchPlan
) -> WhatIfEstimate:
    """Score one candidate's plan against ``engine``'s frozen baseline.

    An empty plan scores as the baseline itself, with no stats.
    """
    projected, stats = engine.what_if(patches)
    return WhatIfEstimate(
        options=options,
        wns=projected.wns,
        tns=projected.tns,
        n_patches=len(patches),
        stats=stats,
    )


def record_plan(record) -> WhatIfPlan:
    """The :func:`whatif_plan` of ``record``'s baseline synthesis at ``record.clock``."""
    return whatif_plan(record.synthesis.netlist, record.clock, record.synthesis.report)


def evaluate_candidates(record, candidates: Sequence[SynthesisOptions]) -> List[WhatIfEstimate]:
    """Project every candidate option set against ``record``'s baseline run.

    ``record`` is a :class:`~repro.core.dataset.DesignRecord`; its default-
    options synthesis (netlist + report, already consistent with
    ``record.clock``) is the shared frozen baseline.  Each candidate
    re-times on its own override columns, so the baseline netlist is only
    read, never copied or edited, and its :class:`WhatIfPlan` (critical
    paths included) is built once per record, not once per call: K
    candidates cost K array re-timings instead of K re-syntheses.
    """
    plan = record_plan(record)
    return [estimate_candidate(plan.engine, options, plan.project(options)) for options in candidates]

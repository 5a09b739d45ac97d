"""Incremental what-if static timing analysis.

:class:`IncrementalSTA` re-times a :class:`~repro.sta.network.TimingNetwork`
on a candidate's *override columns* (a
:class:`~repro.incremental.patches.PatchPlan` scattered into copies of the
baseline columns), against the network's baseline
:class:`~repro.sta.engine.STAReport`, with one whole-graph pass
(:meth:`~repro.sta.csr.CSRTimingGraph.compute_loads` plus the cached level
sweep): what-if patch sets reach about half to four fifths of a label
netlist, and there one vectorized sweep costs less than re-sweeping the
dirty slices level by level.  Its report is a plain
:class:`~repro.sta.engine.STAReport` on the baseline's endpoint columns
(``timing_endpoints``, ``drivers`` and ``required``), so it matches a
from-scratch re-analysis bit for bit.

Its :class:`PropagationStats` are the plan's timing footprint.  The seeds
are the patched vertices plus the load-dirty ones (a swapped cell's fanins
and a loaded net's driver); the recomputed vertices are the seeds plus the
consumers of every vertex whose arrival or slew differs from the baseline;
the updated endpoints are those whose driver's arrival or slew differs.

:meth:`IncrementalSTA.what_if` returns ``(report, stats)`` and writes
neither the network nor the baseline, so concurrent what-ifs need no lock:
K candidates share one frozen baseline netlist and none is re-synthesized.
An empty plan returns the baseline report itself and no stats, so callers
never branch on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.faults import fault_active
from repro.incremental.patches import PatchPlan
from repro.runtime import report as report_mod
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import STAReport, analyze
from repro.sta.network import AttributeColumns, TimingNetwork


@dataclass(slots=True)
class PropagationStats:
    """Timing footprint of one plan (see the module docstring)."""

    n_patches: int
    n_dirty_seeds: int
    n_recomputed: int
    n_vertices: int
    n_endpoints_updated: int

    @property
    def cone_fraction(self) -> float:
        """Fraction of the graph in the plan's dirty cone."""
        if self.n_vertices == 0:
            return 0.0
        return self.n_recomputed / self.n_vertices


class IncrementalSTA:
    """What-if re-timing of one network under one clock against a frozen baseline."""

    def __init__(
        self,
        network: TimingNetwork,
        clock: ClockConstraint,
        baseline: Optional[STAReport] = None,
    ):
        self.network = network
        self.clock = clock
        if baseline is not None and (
            baseline.clock != clock
            or len(baseline.arrivals) != len(network)
            or len(baseline.drivers) != len(network.endpoints)
        ):
            baseline = None  # stale baseline: recompute rather than trust it
        self._report = baseline if baseline is not None else analyze(network, clock)
        # Structure the engine's frozen network keeps for its lifetime
        # (patches never change it; a size change is rejected): the consumer
        # of each fanin edge, and each endpoint's driver and pin cap, in
        # endpoint order.
        compiled = network.compiled()
        self._fanin_owner = np.repeat(
            np.arange(compiled.n), np.diff(compiled.fanin_indptr).astype(np.int64)
        )
        self._endpoint_pins = network.endpoint_pins()

    # -- public API ----------------------------------------------------------

    def report(self) -> STAReport:
        """The baseline report (every what-if leaves it unchanged)."""
        return self._report

    def what_if(self, patches: PatchPlan) -> Tuple[STAReport, Optional[PropagationStats]]:
        """Re-time the network as the plan ``patches`` would leave it: ``(report, stats)``.

        The plan is scattered into override columns, never into the network,
        so the network and :meth:`report` are unchanged afterwards.  The
        report describes the hypothetical network.  An empty plan is the
        baseline: it returns :meth:`report` itself and ``None`` stats,
        re-times nothing and moves no ``incremental_*`` counter.
        """
        if not len(patches):
            return self._report, None
        network = self.network
        n = len(network)
        if n != len(self._report.arrivals):
            raise ValueError(
                "network size changed under the incremental engine; patches must "
                "not add or remove vertices — build a new engine for the edited network"
            )

        with report_mod.stage("incremental.propagate"):
            cols = patches.columns(network.attribute_columns())
            seeds, dirty_load = self._footprint(patches)
            report, recomputed, updated = self._retime(cols, seeds, dirty_load)

        stats = PropagationStats(
            n_patches=len(patches),
            n_dirty_seeds=int(np.count_nonzero(seeds)),
            n_recomputed=recomputed,
            n_vertices=n,
            n_endpoints_updated=updated,
        )
        report_mod.incr("incremental_runs")
        report_mod.incr("incremental_patches", len(patches))
        report_mod.incr("incremental_recomputed_vertices", recomputed)
        return report, stats

    # -- internals -----------------------------------------------------------

    def _footprint(self, plan: PatchPlan):
        """``(seeds, load-dirty)`` vertex masks of ``plan``.

        Every patched vertex is delay-dirty; a swapped cell's fanins (one
        pass over the fanin edges) and a loaded net's driver are load-dirty;
        the seeds are both.
        """
        compiled = self.network.compiled()
        is_swapped = np.zeros(compiled.n, dtype=bool)
        is_swapped[plan.swap_vertices] = True
        dirty_load = np.zeros(compiled.n, dtype=bool)
        dirty_load[compiled.fanin_indices[is_swapped[self._fanin_owner]]] = True
        dirty_load[plan.load_vertices] = True
        seeds = dirty_load.copy()
        seeds[plan.derate_vertices] = True
        seeds[plan.swap_vertices] = True
        return seeds, dirty_load

    def _retime(self, cols: AttributeColumns, seeds: np.ndarray, dirty_load: np.ndarray):
        """Whole-graph array re-analysis; returns ``(report, recomputed, updated)``."""
        network = self.network
        clock = self.clock
        base = self._report
        compiled = network.compiled()
        loads = compiled.compute_loads(cols, self._endpoint_pins)
        _drop_wire_load(dirty_load, cols, loads)
        arrivals = np.zeros(compiled.n)
        slews = np.full(compiled.n, clock.input_slew)
        compiled.sweep_all(cols, clock, arrivals, slews, loads)
        report = STAReport.of(
            network.name, clock, arrivals, slews, loads, base.timing_endpoints, base.drivers, base.required
        )
        changed = (arrivals != base.arrivals) | (slews != base.slews)
        visited = seeds.copy()
        visited[self._fanin_owner[changed[compiled.fanin_indices]]] = True
        updated = int(np.count_nonzero(changed[base.drivers]))
        return report, int(np.count_nonzero(visited)), updated


def _drop_wire_load(dirty_load: np.ndarray, cols: AttributeColumns, loads: np.ndarray) -> None:
    """Debug fault point: drop the wire-load term of the load-dirty vertices.

    The re-timed loads then disagree with :func:`compute_loads`, which the
    fuzz campaign's incremental-vs-full oracle must catch (see repro.faults).
    """
    if dirty_load.any() and fault_active("incremental.extra_load"):
        ids = np.flatnonzero(dirty_load)
        loads[ids] -= cols.extra_load[ids]

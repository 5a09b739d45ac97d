"""Incremental what-if static timing analysis.

:class:`IncrementalSTA` re-times a :class:`~repro.sta.network.TimingNetwork`
on a candidate's *override columns*, against the network's baseline
:class:`~repro.sta.engine.STAReport`.  A candidate is a
:class:`~repro.incremental.patches.PatchPlan` (the projection's arrays,
scattered into copies of the baseline columns) or any sequence of
:mod:`repro.incremental.patches` patch objects (written in order into an
:meth:`~repro.sta.network.AttributeColumns.overridden` copy).

The ``array`` kernel re-times a candidate with one whole-graph pass
(:meth:`~repro.sta.csr.CSRTimingGraph.compute_loads` plus the cached level
sweep): what-if patch sets reach about half to four fifths of a label
netlist, and there one vectorized sweep costs less than re-sweeping the
dirty slices level by level.  Its report is a
:class:`~repro.sta.engine.SlackReport`: WNS and TNS come from the endpoint
slack array, and endpoint objects are built only if read.  Its
:class:`PropagationStats` are the patch set's timing footprint, derived from
what changed: the seeds plus the consumers of every vertex whose arrival or
slew differs from the baseline, exactly the set the ``reference`` kernel's
dirty-cone worklist visits.  That worklist recomputes only the load-dirty
loads (in :func:`~repro.sta.engine.compute_loads` order), re-propagates
from the patches' dirty vertices in topological order with
:func:`~repro.sta.engine.propagate_vertex`, and stops a branch as soon as a
vertex reproduces its old arrival and slew exactly.  Both kernels match a
from-scratch re-analysis bit for bit and report equal stats.

:meth:`IncrementalSTA.what_if` returns ``(report, stats)`` and writes
neither the network nor the baseline, so concurrent what-ifs need no lock:
K candidates share one frozen baseline netlist and none is re-synthesized.
An empty patch set returns the baseline report itself and no stats, so
callers never branch on it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.faults import fault_active
from repro.incremental.patches import Patches, PatchPlan, patched_vertices
from repro.runtime import report as report_mod
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import (
    SlackReport,
    STAReport,
    analyze,
    check_kernel,
    endpoint_timing,
    propagate_vertex,
    summarize_slack_array,
    summarize_slacks,
)
from repro.sta.network import AttributeColumns, TimingNetwork


@dataclass(slots=True)
class PropagationStats:
    """Timing footprint of one patch set (see the module docstring)."""

    n_patches: int
    n_dirty_seeds: int
    n_recomputed: int
    n_vertices: int
    n_endpoints_updated: int

    @property
    def cone_fraction(self) -> float:
        """Fraction of the graph in the patch set's dirty cone."""
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
        kernel: str = "array",
    ):
        self.network = network
        self.clock = clock
        #: STA backend of every pass (``repro.sta.engine.STA_KERNELS``); the
        #: ``reference`` worklist exists for the tests that compare against it.
        self.kernel = check_kernel(kernel)
        if baseline is not None and (
            baseline.clock != clock or len(baseline.arrivals) != len(network)
        ):
            baseline = None  # stale baseline: recompute rather than trust it
        self._report = (
            baseline if baseline is not None else analyze(network, clock, kernel=kernel)
        )
        # Structure the engine's frozen network keeps for its lifetime
        # (patches never change it; a size change is rejected): the consumer
        # of each fanin edge, and each endpoint's driver, pin cap and
        # required time, in endpoint order.
        compiled = network.compiled()
        self._fanin_owner = np.repeat(
            np.arange(compiled.n), np.diff(compiled.fanin_indptr).astype(np.int64)
        )
        self._endpoint_pins = network.endpoint_pins()
        self._required = np.fromiter(
            (clock.required_time(e.setup_time) for e in network.endpoints),
            dtype=np.float64,
            count=len(network.endpoints),
        )

    # -- public API ----------------------------------------------------------

    def report(self) -> STAReport:
        """The baseline report (every what-if leaves it unchanged)."""
        return self._report

    def what_if(self, patches: Patches) -> Tuple[STAReport, Optional[PropagationStats]]:
        """Re-time the network as ``patches`` would leave it: ``(report, stats)``.

        ``patches`` is a :class:`~repro.incremental.patches.PatchPlan` or a
        sequence of patch objects.  They write override columns, never the
        network, so the network and :meth:`report` are unchanged afterwards,
        also when a patch raises.  The report describes the hypothetical
        network.  An empty patch set is the baseline: it returns
        :meth:`report` itself and ``None`` stats, re-times nothing and moves
        no ``incremental_*`` counter.
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
            base = network.attribute_columns()
            if isinstance(patches, PatchPlan):
                cols = patches.columns(base)
            else:
                cols = base.overridden(patches)
            seeds, dirty_load = self._footprint(*patched_vertices(patches))
            retime = self._retime_array if self.kernel == "array" else self._retime_reference
            report, recomputed, updated = retime(cols, seeds, dirty_load)

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

    def _footprint(self, touched: np.ndarray, swapped: np.ndarray, loaded: np.ndarray):
        """``(seeds, load-dirty)`` vertex masks of a patch set (``patched_vertices``).

        Every patched vertex is delay-dirty; a swapped cell's fanins (one
        pass over the fanin edges) and a loaded net's driver are load-dirty;
        the seeds are both.
        """
        compiled = self.network.compiled()
        is_swapped = np.zeros(compiled.n, dtype=bool)
        is_swapped[swapped] = True
        dirty_load = np.zeros(compiled.n, dtype=bool)
        dirty_load[compiled.fanin_indices[is_swapped[self._fanin_owner]]] = True
        dirty_load[loaded] = True
        seeds = dirty_load.copy()
        seeds[touched] = True
        return seeds, dirty_load

    @cached_property
    def _endpoint_caps(self) -> Dict[int, List[float]]:
        """Per-driver endpoint pin capacitances, in endpoint order (the reference kernel's)."""
        caps: Dict[int, List[float]] = {}
        for driver, cap in zip(*(pins.tolist() for pins in self._endpoint_pins)):
            caps.setdefault(driver, []).append(cap)
        return caps

    def _recompute_loads(
        self, vertices: List[int], fanouts: List[List[int]], cols: AttributeColumns, loads
    ) -> None:
        """Recompute the output load of ``vertices``, summed in :func:`compute_loads` order.

        A consumer without a cell adds an input cap of 0.0, an exact no-op.
        """
        input_cap = cols.param("input_cap")
        endpoint_caps = self._endpoint_caps
        for vertex_id in vertices:
            total = 0.0
            for consumer_id in fanouts[vertex_id]:
                total += input_cap[consumer_id]
            for cap in endpoint_caps.get(vertex_id, ()):
                total += cap
            loads[vertex_id] = total + cols.extra_load[vertex_id]

    def _retime_array(self, cols: AttributeColumns, seeds: np.ndarray, dirty_load: np.ndarray):
        """Whole-graph array re-analysis; returns ``(report, recomputed, updated)``.

        With a consistent baseline, a vertex outside the worklist's visit set
        keeps its baseline value, so the vertices that differ from the
        baseline are the ones the worklist saw change.
        """
        network = self.network
        clock = self.clock
        base = self._report
        compiled = network.compiled()
        loads = compiled.compute_loads(cols, self._endpoint_pins)
        _drop_wire_load(dirty_load, cols, loads)
        arrivals = np.zeros(compiled.n)
        slews = np.full(compiled.n, clock.input_slew)
        compiled.sweep_all(cols, clock, arrivals, slews, loads)
        drivers = self._endpoint_pins[0]
        wns, tns = summarize_slack_array(self._required - arrivals[drivers])
        report = SlackReport(
            network.name, clock, network.endpoints, arrivals, slews, loads, wns, tns
        )
        changed = (arrivals != base.arrivals) | (slews != base.slews)
        visited = seeds.copy()
        visited[self._fanin_owner[changed[compiled.fanin_indices]]] = True
        updated = int(np.count_nonzero(changed[drivers]))
        return report, int(np.count_nonzero(visited)), updated

    def _retime_reference(self, cols: AttributeColumns, seeds: np.ndarray, dirty_load: np.ndarray):
        """Per-vertex dirty-cone worklist; returns ``(report, recomputed, updated)``."""
        network = self.network
        base = self._report
        fanouts = network.fanouts()
        position = np.empty(len(network), dtype=np.int64)
        position[network.topological_order()] = np.arange(len(network))
        arrivals = base.arrivals.copy()
        slews = base.slews.copy()
        loads = base.loads.copy()
        self._recompute_loads(np.flatnonzero(dirty_load).tolist(), fanouts, cols, loads)
        _drop_wire_load(dirty_load, cols, loads)

        heap = [(int(position[v]), v) for v in np.flatnonzero(seeds).tolist()]
        heapq.heapify(heap)
        queued: Set[int] = {v for _, v in heap}
        changed_drivers: Set[int] = set()
        recomputed = 0
        while heap:
            _, vertex_id = heapq.heappop(heap)
            queued.discard(vertex_id)
            # The vertex as the candidate has it: its override cell and derate.
            cell, derate = cols.cells[cols.cell_row[vertex_id]], float(cols.derate[vertex_id])
            vertex = network.vertices[vertex_id]._replace(cell=cell, derate=derate)
            arrival, slew = propagate_vertex(
                vertex, self.clock, arrivals, slews, loads[vertex_id]
            )
            recomputed += 1
            if arrival == arrivals[vertex_id] and slew == slews[vertex_id]:
                continue  # downstream values are unchanged by construction
            arrivals[vertex_id] = arrival
            slews[vertex_id] = slew
            changed_drivers.add(vertex_id)
            for consumer in fanouts[vertex_id]:
                if consumer not in queued:
                    queued.add(consumer)
                    heapq.heappush(heap, (int(position[consumer]), consumer))

        endpoints = [
            endpoint_timing(endpoint, self.clock, arrivals)
            if endpoint.driver in changed_drivers
            else base.endpoints[index]
            for index, endpoint in enumerate(network.endpoints)
        ]
        updated = sum(1 for e in network.endpoints if e.driver in changed_drivers)
        wns, tns = summarize_slacks(endpoints)
        report = STAReport(
            design=network.name,
            clock=self.clock,
            arrivals=arrivals,
            slews=slews,
            loads=loads,
            endpoints=endpoints,
            wns=wns,
            tns=tns,
        )
        return report, recomputed, updated


def _drop_wire_load(dirty_load: np.ndarray, cols: AttributeColumns, loads: np.ndarray) -> None:
    """Debug fault point: drop the wire-load term of the load-dirty vertices.

    The re-timed loads then disagree with :func:`compute_loads`, which the
    fuzz campaign's incremental-vs-full oracle must catch (see repro.faults).
    """
    if dirty_load.any() and fault_active("incremental.extra_load"):
        ids = np.flatnonzero(dirty_load)
        loads[ids] -= cols.extra_load[ids]

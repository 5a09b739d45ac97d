"""Incremental what-if static timing analysis.

:class:`IncrementalSTA` re-times a :class:`~repro.sta.network.TimingNetwork`
under local edits described by :mod:`repro.incremental.patches` patch
objects, which write the network's columns in place, against the network's
baseline :class:`~repro.sta.engine.STAReport`.

The ``array`` kernel re-times a patched network with one whole-graph pass
(:meth:`~repro.sta.csr.CSRTimingGraph.compute_loads` plus the cached level
sweep, i.e. :func:`~repro.sta.engine.analyze`): what-if patch sets reach
about half to four fifths of a label netlist, and there one vectorized sweep
costs less than re-sweeping the dirty slices level by level.  Its
:class:`PropagationStats` are the patch set's timing footprint, derived from
what changed: the seeds plus the consumers of every vertex whose arrival or
slew differs from the baseline, exactly the set the ``reference`` kernel's
dirty-cone worklist visits.  That worklist recomputes only the load-dirty
loads (in :func:`~repro.sta.engine.compute_loads` order), re-propagates
from the patches' dirty vertices in topological order with
:func:`~repro.sta.engine.propagate_vertex`, and stops a branch as soon as a
vertex reproduces its old arrival and slew exactly.  Both kernels match a
from-scratch re-analysis bit for bit and report equal stats.

:meth:`IncrementalSTA.what_if` applies a patch set, yields the re-timed
report and reverts the patches on exit (also when a patch or the re-timing
fails), so an engine's baseline stays frozen for its whole lifetime: K
candidates share one baseline netlist and none is re-synthesized.  An empty
patch set yields the baseline report itself, so callers never branch on it.
"""

from __future__ import annotations

import contextlib
import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.faults import fault_active
from repro.incremental.patches import TimingPatch
from repro.runtime import report as report_mod
from repro.sta.constraints import ClockConstraint
from repro.sta.csr import gather_edges
from repro.sta.engine import (
    STAReport,
    analyze,
    check_kernel,
    endpoint_timing,
    propagate_vertex,
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
        self.last_stats: Optional[PropagationStats] = None
        self._endpoint_caps_cache: Optional[Dict[int, List[float]]] = None
        self._endpoint_drivers_cache: Optional[np.ndarray] = None

    # -- public API ----------------------------------------------------------

    def report(self) -> STAReport:
        """The baseline report (every what-if leaves it unchanged)."""
        return self._report

    @contextlib.contextmanager
    def what_if(self, patches: Sequence[TimingPatch]) -> Iterator[STAReport]:
        """Re-time the network with ``patches`` applied, then revert them.

        Yields the re-timed report of the patched network; on exit, or when
        a patch or the re-timing raises, every applied patch is reverted (in
        reverse order), so the network and :meth:`report` are left as they
        were.  The yielded report stays valid after exit as a *prediction*
        artifact — it describes the hypothetical network, not the restored
        one.  An empty patch set is the baseline: it yields :meth:`report`
        itself, re-times nothing, sets :attr:`last_stats` to ``None`` and
        moves no ``incremental_*`` counter.
        """
        if not patches:
            self.last_stats = None
            yield self._report
            return
        applied: List[TimingPatch] = []
        try:
            for patch in patches:
                patch.apply(self.network)
                applied.append(patch)
            yield self._propagate(patches)
        finally:
            for patch in reversed(applied):
                patch.revert(self.network)

    # -- internals -----------------------------------------------------------

    def _endpoint_caps(self) -> Dict[int, List[float]]:
        """Per-driver endpoint pin capacitances, in endpoint-list order.

        Cached for the engine's lifetime: patches never add, remove or
        re-drive endpoints (size changes are rejected).
        """
        if self._endpoint_caps_cache is None:
            caps: Dict[int, List[float]] = {}
            for endpoint in self.network.endpoints:
                caps.setdefault(endpoint.driver, []).append(endpoint.pin_capacitance)
            self._endpoint_caps_cache = caps
        return self._endpoint_caps_cache

    def _endpoint_drivers(self) -> np.ndarray:
        """Driver vertex of every endpoint, in endpoint-list order (cached like the caps)."""
        if self._endpoint_drivers_cache is None:
            endpoints = self.network.endpoints
            self._endpoint_drivers_cache = np.fromiter(
                (e.driver for e in endpoints), dtype=np.int64, count=len(endpoints)
            )
        return self._endpoint_drivers_cache

    def _recompute_loads(
        self, vertices: Set[int], fanouts: List[List[int]], cols: AttributeColumns, loads
    ) -> None:
        """Recompute the output load of ``vertices``, summed in :func:`compute_loads` order.

        A consumer without a cell adds an input cap of 0.0, an exact no-op.
        """
        input_cap = cols.param("input_cap")
        endpoint_caps = self._endpoint_caps()
        for vertex_id in vertices:
            total = 0.0
            for consumer_id in fanouts[vertex_id]:
                total += input_cap[consumer_id]
            for cap in endpoint_caps.get(vertex_id, ()):
                total += cap
            loads[vertex_id] = total + cols.extra_load[vertex_id]

    def _retime_array(self, seeds: Set[int], dirty_load: Set[int]):
        """Whole-graph array re-analysis; returns ``(report, recomputed, updated)``.

        With a consistent baseline, a vertex outside the worklist's visit set
        keeps its baseline value, so the vertices that differ from the
        baseline are the ones the worklist saw change.
        """
        network = self.network
        base = self._report
        compiled = network.compiled()
        cols = network.attribute_columns()
        loads = compiled.compute_loads(network, cols)
        _drop_wire_load(dirty_load, cols, loads)
        report = analyze(network, self.clock, loads=loads)
        changed = (report.arrivals != base.arrivals) | (report.slews != base.slews)
        positions, _ = gather_edges(compiled.fanout_indptr, np.flatnonzero(changed))
        visited = np.zeros(len(network), dtype=bool)
        visited[np.fromiter(seeds, dtype=np.int64, count=len(seeds))] = True
        visited[compiled.fanout_indices[positions]] = True
        updated = int(np.count_nonzero(changed[self._endpoint_drivers()]))
        return report, int(np.count_nonzero(visited)), updated

    def _retime_reference(self, seeds: Set[int], dirty_load: Set[int]):
        """Per-vertex dirty-cone worklist; returns ``(report, recomputed, updated)``."""
        network = self.network
        base = self._report
        fanouts = network.fanouts()
        position = np.empty(len(network), dtype=np.int64)
        position[network.topological_order()] = np.arange(len(network))
        arrivals = base.arrivals.copy()
        slews = base.slews.copy()
        loads = base.loads.copy()
        cols = network.attribute_columns()
        self._recompute_loads(dirty_load, fanouts, cols, loads)
        _drop_wire_load(dirty_load, cols, loads)

        heap = [(int(position[v]), v) for v in seeds]
        heapq.heapify(heap)
        queued: Set[int] = set(seeds)
        changed_drivers: Set[int] = set()
        recomputed = 0
        while heap:
            _, vertex_id = heapq.heappop(heap)
            queued.discard(vertex_id)
            vertex = network.vertices[vertex_id]
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

    def _propagate(self, patches: Sequence[TimingPatch]) -> STAReport:
        network = self.network
        n = len(network)
        if n != len(self._report.arrivals):
            raise ValueError(
                "network size changed under the incremental engine; patches must "
                "not add or remove vertices — build a new engine for the edited network"
            )

        with report_mod.stage("incremental.propagate"):
            dirty_delay: Set[int] = set()
            dirty_load: Set[int] = set()
            for patch in patches:
                dirty_delay.update(patch.dirty_delay_vertices(network))
                dirty_load.update(patch.dirty_load_vertices(network))
            seeds = dirty_delay | dirty_load
            retime = self._retime_array if self.kernel == "array" else self._retime_reference
            report, recomputed, updated = retime(seeds, dirty_load)

        self.last_stats = PropagationStats(
            n_patches=len(patches),
            n_dirty_seeds=len(seeds),
            n_recomputed=recomputed,
            n_vertices=n,
            n_endpoints_updated=updated,
        )
        report_mod.incr("incremental_runs")
        report_mod.incr("incremental_patches", len(patches))
        report_mod.incr("incremental_recomputed_vertices", recomputed)
        return report


def _drop_wire_load(dirty_load: Set[int], cols: AttributeColumns, loads: np.ndarray) -> None:
    """Debug fault point: drop the wire-load term of the load-dirty vertices.

    The re-timed loads then disagree with :func:`compute_loads`, which the
    fuzz campaign's incremental-vs-full oracle must catch (see repro.faults).
    """
    if dirty_load and fault_active("incremental.extra_load"):
        ids = np.fromiter(dirty_load, dtype=np.int64, count=len(dirty_load))
        loads[ids] -= cols.extra_load[ids]

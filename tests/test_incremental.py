"""Incremental what-if timing engine: equivalence and safety properties.

The load-bearing property: after any supported patch sequence, the
re-timed report of :class:`IncrementalSTA` must match a full
``sta.engine.analyze`` run of a copy of the network edited by the same
patches through its writers (``edited_copy``) to 1e-9 on arrivals,
slews, loads and endpoint slacks (in practice they agree bit for bit).
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import random
import weakref

import numpy as np
import pytest

from repro.incremental import IncrementalSTA, PatchPlan
from repro.incremental import whatif as whatif_mod
from repro.incremental.whatif import evaluate_candidates, patches_for_options, record_plan
from repro.core.optimize import generate_candidates, ranking_from_labels
from repro.fuzz.oracles import edited_copy
from repro.runtime import activate
from repro.runtime.report import RuntimeReport
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import STAReport, analyze
from repro.sta.network import VertexKind
from repro.sta.paths import trace_critical_path, trace_critical_paths

TOLERANCE = 1e-9


def _random_patches(network, rng, count):
    """A random plan of every patch kind (a vertex drawn twice keeps its last
    derate or cell, and its loads add up)."""
    gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]
    derates, swaps, loads = {}, {}, {}
    drawn = 0
    while drawn < count:
        kind = rng.choice(("derate", "swap", "load"))
        vertex = rng.choice(gates)
        if kind == "derate":
            derates[vertex] = rng.uniform(0.4, 1.6)
            drawn += 1
        elif kind == "swap":
            cell = network.vertices[vertex].cell
            alternative = network.library.upsize(cell) or network.library.downsize(cell)
            if alternative is not None:
                swaps[vertex] = alternative
                drawn += 1
        else:
            loads[vertex] = loads.get(vertex, 0.0) + rng.uniform(0.1, 8.0)
            drawn += 1
    return PatchPlan.of(network, derates, swaps, loads)


def _network_state(network):
    """Full observable state of a netlist, for no-edit checks."""
    return (
        [(v.cell.name if v.cell else None, v.derate, v.extra_load, tuple(v.fanins))
         for v in network.vertices],
        [(e.name, e.driver) for e in network.endpoints],
    )


def _columns_snapshot(network):
    """``network.columns()`` as plain copies, so an in-place write would show."""
    columns = network.columns()
    values = {field.name: getattr(columns, field.name) for field in dataclasses.fields(columns)}
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else list(value)
        for name, value in values.items()
    }


def _assert_matches_full(incremental, network, clock, patches=None):
    """``incremental`` equals a full analysis of ``network`` edited by ``patches``."""
    full = analyze(edited_copy(network, patches or PatchPlan.of(network)), clock)
    np.testing.assert_allclose(incremental.arrivals, full.arrivals, atol=TOLERANCE, rtol=0)
    np.testing.assert_allclose(incremental.slews, full.slews, atol=TOLERANCE, rtol=0)
    np.testing.assert_allclose(incremental.loads, full.loads, atol=TOLERANCE, rtol=0)
    assert len(incremental.endpoints) == len(full.endpoints)
    for inc_ep, full_ep in zip(incremental.endpoints, full.endpoints):
        assert inc_ep.name == full_ep.name
        assert abs(inc_ep.slack - full_ep.slack) <= TOLERANCE
        assert abs(inc_ep.arrival - full_ep.arrival) <= TOLERANCE
    assert abs(incremental.wns - full.wns) <= TOLERANCE
    assert abs(incremental.tns - full.tns) <= TOLERANCE


def _assert_fails_cleanly(network, engine, patches, match):
    """``what_if(patches)`` raises, and the network and baseline report are unchanged."""
    baseline = engine.report()
    before = _network_state(network)
    columns = _columns_snapshot(network)
    with pytest.raises(ValueError, match=match):
        engine.what_if(patches)
    assert _network_state(network) == before
    assert _columns_snapshot(network) == columns
    assert engine.report() is baseline


class TestWhatIfEquivalence:
    def test_random_patches_match_full_reanalysis(self, tiny_records):
        """Property test: 1-12 random patches, what-if vs from-scratch STA."""
        record = tiny_records[0]
        network = record.synthesis.netlist
        engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
        rng = random.Random(1234)
        for _ in range(25):
            patches = _random_patches(network, rng, rng.randint(1, 12))
            before = _network_state(network)
            report, _ = engine.what_if(patches)
            _assert_matches_full(report, network, record.clock, patches)
            assert _network_state(network) == before  # the network is never edited

    def test_pseudo_bog_network_patches_match_full(self, tiny_records):
        """The engine serves BOG pseudo netlists, not just mapped netlists:
        derate/load patches on a pseudo-STA network re-time exactly."""
        from repro.sta.constraints import ClockConstraint as Clock

        record = tiny_records[0]
        network = record.pseudo_networks["sog"]
        clock = Clock(period=1000.0)
        engine = IncrementalSTA(network, clock, baseline=record.pseudo_reports["sog"])
        rng = random.Random(99)
        gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]
        for _ in range(10):
            derates, loads = {}, {}
            for _ in range(rng.randint(1, 6)):
                vertex = rng.choice(gates)
                if rng.random() < 0.5:
                    derates[vertex] = rng.uniform(0.4, 1.6)
                else:
                    loads[vertex] = loads.get(vertex, 0.0) + rng.uniform(0.1, 8.0)
            patches = PatchPlan.of(network, derates=derates, loads=loads)
            report, _ = engine.what_if(patches)
            _assert_matches_full(report, network, clock, patches)

    def test_what_if_keeps_committed_report(self, tiny_records):
        record = tiny_records[1]
        network = record.synthesis.netlist
        engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
        baseline = engine.report()
        gate = next(v.id for v in network.vertices if v.kind is VertexKind.GATE)
        engine.what_if(PatchPlan.of(network, derates={gate: 0.5}))
        assert engine.report() is baseline
        _assert_matches_full(engine.report(), network, record.clock)

    def test_one_gate_with_every_kind_matches_full(self, tiny_records):
        """A derate, a cell swap and a load on the same gate re-time bit for
        bit like the same edits written through the network's writers."""
        record = tiny_records[0]
        network = record.synthesis.netlist
        engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
        gate = next(
            v for v in network.vertices
            if v.kind is VertexKind.GATE and network.library.upsize(v.cell) is not None
        )
        patches = PatchPlan.of(
            network,
            derates={gate.id: 0.5},
            swaps={gate.id: network.library.upsize(gate.cell)},
            loads={gate.id: 1.75},
        )
        report, stats = engine.what_if(patches)
        full = analyze(edited_copy(network, patches), record.clock)
        assert type(report) is STAReport
        for name in ("arrivals", "slews", "loads", "drivers", "required", "slacks"):
            assert np.array_equal(getattr(report, name), getattr(full, name))
        assert report.timing_endpoints == full.timing_endpoints
        assert (report.wns, report.tns) == (full.wns, full.tns)
        assert stats.n_patches == 3


class TestEngineBehaviour:
    def test_dirty_cone_is_local(self, tiny_records):
        """A single late-cone patch must not re-propagate the whole graph."""
        record = tiny_records[0]
        network = record.synthesis.netlist
        engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
        position = {v: i for i, v in enumerate(network.topological_order())}
        late_gate = max(
            (v.id for v in network.vertices if network.vertices[v.id].kind is VertexKind.GATE),
            key=lambda v: position[v],
        )
        _, stats = engine.what_if(PatchPlan.of(network, derates={late_gate: 0.5}))
        assert stats is not None
        assert 0 < stats.n_recomputed < len(network.vertices)
        assert stats.cone_fraction < 1.0

    def test_empty_what_if_is_the_baseline(self, tiny_records):
        """An empty plan returns the engine's own baseline report: no
        re-timing, no stats and no ``incremental_*`` counter moves."""
        record = tiny_records[0]
        network = record.synthesis.netlist
        engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
        gate = next(v.id for v in network.vertices if v.kind is VertexKind.GATE)
        _, stats = engine.what_if(PatchPlan.of(network, derates={gate: 0.5}))
        assert stats is not None
        report = RuntimeReport()
        with activate(report):
            projected, stats = engine.what_if(PatchPlan.of(network))
            assert projected is engine.report()
        assert stats is None
        assert not [name for name in report.counters if name.startswith("incremental_")]
        assert "incremental.propagate" not in report.stages

    def test_stale_baseline_is_recomputed(self, tiny_records):
        record = tiny_records[0]
        network = record.synthesis.netlist
        other_clock = ClockConstraint(period=record.clock.period * 2.0)
        engine = IncrementalSTA(network, other_clock, baseline=record.synthesis.report)
        _assert_matches_full(engine.report(), network, other_clock)

        # Same vertices, one endpoint more: the baseline's endpoint columns are stale.
        grown = copy.deepcopy(network)
        grown.add_endpoint(dataclasses.replace(grown.endpoints[0], name="late_endpoint"))
        engine = IncrementalSTA(grown, record.clock, baseline=record.synthesis.report)
        assert engine.report() is not record.synthesis.report
        assert len(engine.report().drivers) == len(grown.endpoints)
        _assert_matches_full(engine.report(), grown, record.clock)

    def test_size_change_is_rejected(self, tiny_records):
        """Patches must not add vertices; an edited network needs a new engine."""
        record = tiny_records[1]
        network = copy.deepcopy(record.synthesis.netlist)
        engine = IncrementalSTA(network, record.clock)
        network.add_vertex(VertexKind.INPUT, name="late_arrival")
        gate = next(v.id for v in network.vertices if v.kind is VertexKind.GATE)
        patches = PatchPlan.of(network, derates={gate: 0.9})
        _assert_fails_cleanly(network, engine, patches, "network size changed")

    def test_swap_cell_requires_cell(self, tiny_records):
        """A plan cannot swap the cell of a vertex that has none."""
        network = tiny_records[0].synthesis.netlist
        vertex = next(v for v in network.vertices if v.cell is None)
        any_cell = next(v.cell for v in network.vertices if v.cell is not None)
        with pytest.raises(ValueError, match=f"vertex {vertex.id} has no cell to swap"):
            PatchPlan.of(network, swaps={vertex.id: any_cell})


class TestWhatIfProjection:
    def test_candidate_patches_are_nonempty_and_revertible(self, tiny_records):
        record = tiny_records[0]
        ranked = ranking_from_labels(record)
        candidates = generate_candidates(ranked, k=4)
        netlist = record.synthesis.netlist
        report = record.synthesis.report
        before = _network_state(netlist)
        patch_sets = [patches_for_options(netlist, report, c) for c in candidates]
        assert all(patch_sets), "every candidate should project at least one patch"
        assert _network_state(netlist) == before  # projection itself is read-only

    def test_path_table_matches_the_scalar_tracer(self, tiny_records):
        """The plan's one array trace over the baseline ``drivers`` holds
        ``trace_critical_path``'s vertex list for every endpoint, row by row."""
        for record in tiny_records:
            netlist = record.synthesis.netlist
            report = record.synthesis.report
            walks = trace_critical_paths(netlist, report, report.drivers)
            assert len(walks) == len(report.timing_endpoints) == len(netlist.endpoints)
            for walk, endpoint in zip(walks, report.timing_endpoints):
                assert walk == trace_critical_path(netlist, report, endpoint).vertices

    def test_evaluate_candidates_is_pure(self, tiny_records):
        """Evaluation never mutates the record and is run-to-run stable."""
        record = tiny_records[1]
        ranked = ranking_from_labels(record)
        candidates = generate_candidates(ranked, k=6)
        before = _network_state(record.synthesis.netlist)
        columns = _columns_snapshot(record.synthesis.netlist)
        first = evaluate_candidates(record, candidates)
        second = evaluate_candidates(record, candidates)
        assert _network_state(record.synthesis.netlist) == before
        assert _columns_snapshot(record.synthesis.netlist) == columns
        assert [(e.wns, e.tns, e.n_patches) for e in first] == [
            (e.wns, e.tns, e.n_patches) for e in second
        ]
        assert len(first) == len(candidates)


class TestWhatIfPlanLifetime:
    """One :class:`WhatIfPlan` per frozen baseline, kept on the netlist until an edit."""

    @staticmethod
    def _fresh(record):
        """A copy of ``record`` with no plan yet (pickles never carry one)."""
        return pickle.loads(pickle.dumps(record, protocol=5))

    def test_two_evaluations_trace_the_critical_paths_once(self, tiny_records, monkeypatch):
        record = self._fresh(tiny_records[2])
        traced = []

        def counting_trace(*args):
            traced.append(args)
            return trace_critical_paths(*args)

        monkeypatch.setattr(whatif_mod, "trace_critical_paths", counting_trace)
        candidates = generate_candidates(ranking_from_labels(record), k=4)
        report = RuntimeReport()
        with activate(report):
            first = evaluate_candidates(record, candidates)
            second = evaluate_candidates(record, candidates)
        assert len(traced) == 1
        assert report.counters["incremental_plan_builds"] == 1
        assert [(e.wns, e.tns, e.stats) for e in first] == [(e.wns, e.tns, e.stats) for e in second]

    def test_every_writer_drops_the_plan(self, tiny_records):
        record = self._fresh(tiny_records[0])
        netlist = record.synthesis.netlist
        gate = next(v.id for v in netlist.vertices if v.kind is VertexKind.GATE)
        writes = [
            lambda: netlist.set_cell(gate, netlist.cell_of(gate)),
            lambda: netlist.set_derate(gate, netlist.derate_of(gate)),
            lambda: netlist.set_extra_load(gate, 0.0),
            lambda: netlist.set_fanins(gate, netlist.fanins_of(gate)),
            lambda: netlist.add_endpoint(netlist.endpoints[0]),
            lambda: netlist.add_vertex(VertexKind.INPUT, name="late_input"),
        ]
        for write in writes:
            plan = record_plan(record)
            assert record_plan(record) is plan
            write()
            assert record_plan(record) is not plan

    def test_a_dropped_record_is_freed_without_the_cycle_collector(self, tiny_records):
        """The plan reaches its netlist only weakly, so it adds no reference cycle."""
        record = self._fresh(tiny_records[3])
        evaluate_candidates(record, generate_candidates(ranking_from_labels(record), k=4))
        netlist = weakref.ref(record.synthesis.netlist)
        gc.disable()
        try:
            del record
            assert netlist() is None
        finally:
            gc.enable()

    def test_what_if_leaves_the_record_pickle_unchanged(self, tiny_records):
        """Cache keys and pool request bytes do not depend on a what-if having run."""
        record = self._fresh(tiny_records[1])
        before = pickle.dumps(record, protocol=5)
        evaluate_candidates(record, generate_candidates(ranking_from_labels(record), k=4))
        assert record.synthesis.netlist._whatif_plan is not None
        assert pickle.dumps(record, protocol=5) == before

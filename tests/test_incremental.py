"""Incremental what-if timing engine: equivalence and safety properties.

The load-bearing property: after any supported patch sequence, the
re-timed report of :class:`IncrementalSTA` must match a full
``sta.engine.analyze`` run of a copy of the network edited by the same
patches through its writers (``edited_copy``) to 1e-9 on arrivals,
slews, loads and endpoint slacks (in practice they agree bit for bit), and
its array kernel must report the same footprint stats as the reference
dirty-cone worklist.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import numpy as np
import pytest

from repro.incremental import (
    AddExtraLoad,
    IncrementalSTA,
    SetDerate,
    SwapCell,
)
from repro.incremental.whatif import (
    critical_path_table,
    evaluate_candidates,
    patches_for_options,
)
from repro.core.optimize import generate_candidates, ranking_from_labels
from repro.fuzz.oracles import edited_copy
from repro.runtime import activate
from repro.runtime.report import RuntimeReport
from repro.sta.constraints import ClockConstraint
from repro.sta.engine import analyze
from repro.sta.network import VertexKind
from repro.sta.paths import trace_critical_path

TOLERANCE = 1e-9


def _random_patches(network, rng, count):
    """A random mix of every supported patch kind."""
    gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]
    patches = []
    while len(patches) < count:
        kind = rng.choice(("derate", "swap", "load"))
        vertex = rng.choice(gates)
        if kind == "derate":
            patches.append(SetDerate(vertex, rng.uniform(0.4, 1.6)))
        elif kind == "swap":
            cell = network.vertices[vertex].cell
            alternative = network.library.upsize(cell) or network.library.downsize(cell)
            if alternative is not None:
                patches.append(SwapCell(vertex, alternative))
        else:
            patches.append(AddExtraLoad(vertex, rng.uniform(0.1, 8.0)))
    return patches


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


def _assert_matches_full(incremental, network, clock, patches=()):
    """``incremental`` equals a full analysis of ``network`` edited by ``patches``."""
    full = analyze(edited_copy(network, patches), clock)
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
            patches = []
            for _ in range(rng.randint(1, 6)):
                vertex = rng.choice(gates)
                if rng.random() < 0.5:
                    patches.append(SetDerate(vertex, rng.uniform(0.4, 1.6)))
                else:
                    patches.append(AddExtraLoad(vertex, rng.uniform(0.1, 8.0)))
            report, _ = engine.what_if(patches)
            _assert_matches_full(report, network, clock, patches)

    def test_what_if_keeps_committed_report(self, tiny_records):
        record = tiny_records[1]
        network = record.synthesis.netlist
        engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
        baseline = engine.report()
        gate = next(v.id for v in network.vertices if v.kind is VertexKind.GATE)
        engine.what_if([SetDerate(gate, 0.5)])
        assert engine.report() is baseline
        _assert_matches_full(engine.report(), network, record.clock)

    def test_kernels_agree_on_reports_and_footprint(self, tiny_records):
        """The array re-timing and the reference worklist give bit-identical
        reports and equal stats on the same patch sets."""
        record = tiny_records[3]
        network = copy.deepcopy(record.synthesis.netlist)
        array = IncrementalSTA(network, record.clock, kernel="array")
        reference = IncrementalSTA(network, record.clock, kernel="reference")
        rng = random.Random(21)
        for _ in range(12):
            patches = _random_patches(network, rng, rng.randint(1, 8))
            results = [engine.what_if(patches) for engine in (array, reference)]
            reports = [report for report, _ in results]
            array_stats, reference_stats = (stats for _, stats in results)
            for name in ("arrivals", "slews", "loads"):
                assert np.array_equal(getattr(reports[0], name), getattr(reports[1], name))
            assert [e.slack for e in reports[0].endpoints] == [e.slack for e in reports[1].endpoints]
            assert (reports[0].wns, reports[0].tns) == (reports[1].wns, reports[1].tns)
            assert array_stats == reference_stats
            assert 0 < array_stats.n_recomputed <= len(network)


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
        _, stats = engine.what_if([SetDerate(late_gate, 0.5)])
        assert stats is not None
        assert 0 < stats.n_recomputed < len(network.vertices)
        assert stats.cone_fraction < 1.0

    def test_empty_what_if_is_the_baseline(self, tiny_records):
        """``what_if([])`` returns the engine's own baseline report: no
        re-timing, no stats and no ``incremental_*`` counter moves."""
        record = tiny_records[0]
        network = record.synthesis.netlist
        engine = IncrementalSTA(network, record.clock, baseline=record.synthesis.report)
        gate = next(v.id for v in network.vertices if v.kind is VertexKind.GATE)
        _, stats = engine.what_if([SetDerate(gate, 0.5)])
        assert stats is not None
        report = RuntimeReport()
        with activate(report):
            projected, stats = engine.what_if([])
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

    def test_size_change_is_rejected(self, tiny_records):
        """Patches must not add vertices; an edited network needs a new engine."""
        record = tiny_records[1]
        network = copy.deepcopy(record.synthesis.netlist)
        engine = IncrementalSTA(network, record.clock)
        network.add_vertex(VertexKind.INPUT, name="late_arrival")
        gate = next(v.id for v in network.vertices if v.kind is VertexKind.GATE)
        _assert_fails_cleanly(network, engine, [SetDerate(gate, 0.9)], "network size changed")

    def test_swap_cell_requires_cell(self, tiny_records):
        record = tiny_records[0]
        network = record.synthesis.netlist
        vertex = next(v for v in network.vertices if v.cell is None)
        any_cell = next(v.cell for v in network.vertices if v.cell is not None)
        with pytest.raises(ValueError, match="no cell"):
            network.attribute_columns().overridden([SwapCell(vertex.id, any_cell)])

    def test_override_columns_stack_in_patch_order(self, tiny_records):
        """Patches write a copy in order (a second load adds onto the first);
        the network's own view is untouched and refuses a cell write."""
        network = tiny_records[0].synthesis.netlist
        gate = next(v for v in network.vertices if v.kind is VertexKind.GATE)
        own = network.attribute_columns()
        base = float(own.extra_load[gate.id])
        cols = own.overridden(
            [AddExtraLoad(gate.id, 1.5), SetDerate(gate.id, 0.5), AddExtraLoad(gate.id, 0.25)]
        )
        assert cols.extra_load[gate.id] == (base + 1.5) + 0.25
        assert cols.derate[gate.id] == 0.5
        assert own.extra_load[gate.id] == base and own.derate[gate.id] == gate.derate
        with pytest.raises(ValueError, match="writers"):
            SwapCell(gate.id, gate.cell).write(own)


class TestFailedWhatIfReverts:
    """A patch set that fails in ``what_if`` leaves the network and report as they were.

    Nothing needs reverting: a what-if writes override columns, never the network.
    """

    def _engine(self, record):
        network = copy.deepcopy(record.synthesis.netlist)
        return network, IncrementalSTA(network, record.clock)

    def test_failed_swap_reverts_the_patches_before_it(self, tiny_records):
        record = tiny_records[0]
        network, engine = self._engine(record)
        gate = next(v.id for v in network.vertices if v.kind is VertexKind.GATE)
        bare = next(v.id for v in network.vertices if v.cell is None)
        cell = network.vertices[gate].cell
        _assert_fails_cleanly(
            network,
            engine,
            [SetDerate(gate, 0.25), SwapCell(bare, cell)],
            f"vertex {bare} has no cell to swap",
        )
        _assert_matches_full(engine.report(), network, record.clock)


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
        """The array-traced baseline table holds ``trace_critical_path``'s
        vertex list for every endpoint name (first endpoint of a name wins)."""
        for record in tiny_records:
            netlist = record.synthesis.netlist
            report = record.synthesis.report
            table = critical_path_table(netlist, report)
            names = {endpoint.name for endpoint in netlist.endpoints}
            assert set(table) == names
            for name in names:
                assert table[name] == trace_critical_path(netlist, report, name).vertices

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

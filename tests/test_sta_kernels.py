"""Tests for the compiled CSR timing graph and the array STA kernel.

The contract under test: the ``array`` kernel (levelized numpy sweeps over
``repro.sta.csr.CSRTimingGraph``) is *bit-identical* to the ``reference``
kernel (the per-vertex ``propagate_vertex`` loop) on every network, and the
compiled structural views (``topological_order``, ``fanouts``, levels) are
deterministic pure functions of the graph structure.
"""

import numpy as np
import pytest

from repro.bog.builder import build_sog
from repro.bog.transforms import build_variants
from repro.fuzz.oracles import edited_copy
from repro.incremental import AddExtraLoad, IncrementalSTA, SetDerate, SwapCell
from repro.liberty import pseudo_library
from repro.sta import (
    ClockConstraint,
    TimingNetwork,
    VertexKind,
    analyze,
    from_bog,
)

CLOCK = ClockConstraint(period=700.0)

LIBRARY = pseudo_library()


def _assert_reports_identical(array, reference):
    assert np.array_equal(array.loads, reference.loads)
    assert np.array_equal(array.arrivals, reference.arrivals)
    assert np.array_equal(array.slews, reference.slews)
    assert array.wns == reference.wns
    assert array.tns == reference.tns
    assert [e.slack for e in array.endpoints] == [e.slack for e in reference.endpoints]


def _both_kernels(network, clock=CLOCK):
    return analyze(network, clock, kernel="array"), analyze(
        network, clock, kernel="reference"
    )


class TestKernelSelection:
    def test_default_is_array(self, simple_design):
        network = from_bog(build_sog(simple_design))
        _assert_reports_identical(analyze(network, CLOCK), analyze(network, CLOCK, kernel="array"))

    def test_unknown_kernel_rejected(self, simple_design):
        network = from_bog(build_sog(simple_design))
        with pytest.raises(ValueError, match="unknown STA kernel 'vector'"):
            analyze(network, CLOCK, kernel="vector")
        with pytest.raises(ValueError, match="unknown STA kernel 'simd'"):
            IncrementalSTA(network, CLOCK, kernel="simd")


class TestBitIdentity:
    def test_all_bog_variants_bit_identical(self, simple_design):
        for variant, bog in build_variants(simple_design).items():
            array, reference = _both_kernels(from_bog(bog))
            _assert_reports_identical(array, reference)

    def test_identical_after_attribute_edits_without_invalidate(self, simple_design):
        network = from_bog(build_sog(simple_design))
        analyze(network, CLOCK)  # compile once
        rng = np.random.default_rng(5)
        for vertex_id in rng.choice(len(network), size=10, replace=False):
            network.set_derate(int(vertex_id), float(rng.uniform(0.3, 1.7)))
            network.set_extra_load(int(vertex_id), float(rng.uniform(0.0, 5.0)))
        array, reference = _both_kernels(network)
        _assert_reports_identical(array, reference)

    def test_identical_after_cell_swap(self, simple_design):
        # The pseudo library has one drive per function, so "swap" means a
        # different function's cell — the timing engine only reads the cell's
        # parameters, and a changed cell exercises the column cell table.
        network = from_bog(build_sog(simple_design), library=LIBRARY)
        analyze(network, CLOCK)
        replacement = LIBRARY.pick("XOR")
        swapped = 0
        for vertex in network.vertices:
            if vertex.kind is VertexKind.GATE and vertex.cell is not replacement:
                network.set_cell(vertex.id, replacement)
                swapped += 1
                if swapped == 5:
                    break
        assert swapped
        array, reference = _both_kernels(network)
        _assert_reports_identical(array, reference)

    def test_explicit_loads_argument(self, simple_design):
        network = from_bog(build_sog(simple_design))
        loads = analyze(network, CLOCK, kernel="reference").loads + 1.25
        array = analyze(network, CLOCK, loads=loads.copy(), kernel="array")
        reference = analyze(network, CLOCK, loads=loads.copy(), kernel="reference")
        _assert_reports_identical(array, reference)


class TestGraphEdgeCases:
    def test_empty_network(self):
        network = TimingNetwork("empty")
        array, reference = _both_kernels(network)
        _assert_reports_identical(array, reference)
        assert array.wns == 0.0 and array.tns == 0.0
        assert network.topological_order() == []
        assert network.compiled().n_levels == 0

    def test_single_const_vertex(self):
        network = TimingNetwork("const-only")
        network.add_vertex(VertexKind.CONST)
        array, reference = _both_kernels(network)
        _assert_reports_identical(array, reference)
        assert array.arrivals[0] == 0.0
        assert array.slews[0] == CLOCK.input_slew
        assert network.levels() == [0]

    def test_deep_chain_has_one_level_per_vertex(self):
        network = TimingNetwork("chain")
        cell = LIBRARY.pick("NOT")
        previous = network.add_vertex(VertexKind.INPUT, name="a")
        for _ in range(200):
            previous = network.add_vertex(VertexKind.GATE, fanins=[previous], cell=cell)
        compiled = network.compiled()
        assert compiled.n_levels == len(network.vertices)
        assert network.levels() == list(range(len(network.vertices)))
        array, reference = _both_kernels(network)
        _assert_reports_identical(array, reference)

    def test_wide_fanout_one_to_1000(self):
        network = TimingNetwork("wide")
        cell = LIBRARY.pick("NOT")
        driver = network.add_vertex(VertexKind.INPUT, name="a")
        consumers = [
            network.add_vertex(VertexKind.GATE, fanins=[driver], cell=cell)
            for _ in range(1000)
        ]
        assert network.fanouts()[driver] == consumers
        assert network.compiled().n_levels == 2
        array, reference = _both_kernels(network)
        _assert_reports_identical(array, reference)

    def test_combinational_cycle_raises_on_both_kernels(self):
        cell = LIBRARY.pick("AND")
        for kernel in ("array", "reference"):
            network = TimingNetwork("looped")
            a = network.add_vertex(VertexKind.INPUT, name="a")
            g1 = network.add_vertex(VertexKind.GATE, fanins=[a], cell=cell)
            g2 = network.add_vertex(VertexKind.GATE, fanins=[g1], cell=cell)
            network.set_fanins(g1, [a, g2])
            with pytest.raises(ValueError, match="combinational cycle"):
                analyze(network, CLOCK, kernel=kernel)


class TestTopologicalOrderDeterminism:
    def test_level_major_ascending_within_level(self, simple_design):
        network = from_bog(build_sog(simple_design))
        order = network.topological_order()
        levels = network.levels()
        keys = [(levels[v], v) for v in order]
        assert keys == sorted(keys)
        assert sorted(order) == list(range(len(network.vertices)))

    def test_stable_across_invalidate_cycles(self, simple_design):
        network = from_bog(build_sog(simple_design))
        first = list(network.topological_order())
        first_fanouts = [list(f) for f in network.fanouts()]
        for _ in range(3):
            network.invalidate()
            assert network.topological_order() == first
            assert [list(f) for f in network.fanouts()] == first_fanouts

    def test_recompilation_is_lazy(self, simple_design):
        network = from_bog(build_sog(simple_design))
        compiled = network.compiled()
        assert network.compiled() is compiled  # cached
        network.invalidate()
        recompiled = network.compiled()
        assert recompiled is not compiled
        assert recompiled.topological_list() == compiled.topological_list()


class TestIncrementalKernelParity:
    @pytest.mark.parametrize("kernel", ["array", "reference"])
    def test_incremental_matches_full_under_both_kernels(self, simple_design, kernel):
        network = from_bog(build_sog(simple_design), library=LIBRARY)
        engine = IncrementalSTA(network, CLOCK, kernel=kernel)
        gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]
        patches = [
            SetDerate(gates[0], 1.4),
            AddExtraLoad(gates[len(gates) // 2], 3.0),
        ]
        stronger = LIBRARY.upsize(network.vertices[gates[-1]].cell)
        if stronger is not None:
            patches.append(SwapCell(gates[-1], stronger))
        incremental, _ = engine.what_if(patches)
        full = analyze(edited_copy(network, patches), CLOCK, kernel=kernel)
        assert np.array_equal(incremental.arrivals, full.arrivals)
        assert np.array_equal(incremental.slews, full.slews)
        assert incremental.wns == full.wns
        assert incremental.tns == full.tns

    def test_incremental_stats_agree_between_kernels(self, simple_design):
        results = {}
        for kernel in ("array", "reference"):
            network = from_bog(build_sog(simple_design))
            engine = IncrementalSTA(network, CLOCK, kernel=kernel)
            gates = [v.id for v in network.vertices if v.kind is VertexKind.GATE]
            incremental, stats = engine.what_if([SetDerate(gates[2], 1.3)])
            results[kernel] = (incremental.arrivals, incremental.wns, stats.n_recomputed)
        array_result, reference_result = results["array"], results["reference"]
        assert np.array_equal(array_result[0], reference_result[0])
        assert array_result[1] == reference_result[1]
        assert array_result[2] == reference_result[2]


class TestFaultInjection:
    def test_array_delay_fault_breaks_identity(self, simple_design, monkeypatch):
        network = from_bog(build_sog(simple_design))
        monkeypatch.setenv("REPRO_FAULT_INJECT", "sta.array_delay")
        array, reference = _both_kernels(network)
        assert not np.array_equal(array.arrivals, reference.arrivals)

    def test_fault_off_by_default(self, simple_design):
        network = from_bog(build_sog(simple_design))
        array, reference = _both_kernels(network)
        _assert_reports_identical(array, reference)

"""Tests for the STA engine, constraints and path tracing."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bog.builder import build_sog
from repro.liberty import nangate45_like, pseudo_library
from repro.sta import (
    ClockConstraint,
    TimingNetwork,
    VertexKind,
    analyze,
    compute_loads,
    driving_launch_points,
    from_bog,
    input_cone,
    path_arrival,
    sample_random_path,
    trace_critical_path,
)
from repro.sta.engine import ordered_sum, summarize_slack_array
from repro.synth.netlist import Netlist


@pytest.fixture(scope="module")
def pseudo_net(simple_design):
    return from_bog(build_sog(simple_design))


@pytest.fixture(scope="module")
def report(pseudo_net):
    return analyze(pseudo_net, ClockConstraint(period=500.0))


class TestConstraints:
    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            ClockConstraint(period=0.0)
        with pytest.raises(ValueError):
            ClockConstraint(period=100.0, uncertainty=-1.0)

    def test_required_time(self):
        clock = ClockConstraint(period=500.0, uncertainty=20.0)
        assert clock.required_time(42.0) == pytest.approx(438.0)

    def test_scaled(self):
        clock = ClockConstraint(period=500.0)
        assert clock.scaled(2.0).period == 1000.0


class TestEngine:
    def test_arrivals_nonnegative_and_monotone_along_fanin(self, pseudo_net, report):
        for vertex in pseudo_net.vertices:
            if vertex.kind is VertexKind.GATE:
                for fanin in vertex.fanins:
                    assert report.arrivals[vertex.id] >= report.arrivals[fanin] - 1e-9

    def test_every_register_endpoint_reported(self, pseudo_net, report):
        reported = {e.name for e in report.endpoints}
        expected = {e.name for e in pseudo_net.endpoints}
        assert reported == expected

    def test_slack_is_required_minus_arrival(self, pseudo_net, report):
        endpoint = report.register_endpoints()[0]
        net_endpoint = next(e for e in pseudo_net.endpoints if e.name == endpoint.name)
        required = report.clock.required_time(net_endpoint.setup_time)
        assert endpoint.slack == pytest.approx(required - endpoint.arrival)

    def test_wns_tns_consistency(self, report):
        negative = [e.slack for e in report.endpoints if e.slack < 0]
        if negative:
            assert report.wns == pytest.approx(min(negative))
            assert report.tns == pytest.approx(sum(negative))
        else:
            assert report.wns == 0.0 and report.tns == 0.0

    def test_longer_period_improves_slack(self, pseudo_net):
        short = analyze(pseudo_net, ClockConstraint(period=300.0))
        long = analyze(pseudo_net, ClockConstraint(period=900.0))
        assert long.wns >= short.wns
        assert long.tns >= short.tns

    def test_loads_include_fanout_caps(self, pseudo_net):
        loads = compute_loads(pseudo_net)
        fanouts = pseudo_net.fanouts()
        for vertex in pseudo_net.vertices:
            if fanouts[vertex.id]:
                assert loads[vertex.id] > 0.0

    def test_extra_load_increases_arrival(self, simple_design):
        network = from_bog(build_sog(simple_design))
        clock = ClockConstraint(period=500.0)
        base = analyze(network, clock)
        network.set_extra_load(slice(None), network.attribute_columns().extra_load + 20.0)
        loaded = analyze(network, clock)
        assert loaded.summary()["max_arrival"] > base.summary()["max_arrival"]

    def test_derate_scales_delays(self, simple_design):
        network = from_bog(build_sog(simple_design))
        clock = ClockConstraint(period=500.0)
        base = analyze(network, clock)
        network.set_derate(slice(None), 0.5)
        faster = analyze(network, clock)
        assert faster.summary()["max_arrival"] < base.summary()["max_arrival"]


class TestPaths:
    def test_critical_path_starts_at_launch_point(self, pseudo_net, report):
        endpoint = report.register_endpoints()[0]
        path = trace_critical_path(pseudo_net, report, endpoint.name)
        first = pseudo_net.vertices[path.vertices[0]]
        assert first.kind in (VertexKind.REGISTER, VertexKind.INPUT, VertexKind.CONST)
        assert path.vertices[-1] == endpoint.driver

    def test_critical_path_arrival_matches_report(self, pseudo_net, report):
        endpoint = max(report.register_endpoints(), key=lambda e: e.arrival)
        path = trace_critical_path(pseudo_net, report, endpoint.name)
        assert path_arrival(pseudo_net, report, path.vertices) == pytest.approx(
            endpoint.arrival, rel=1e-6
        )

    def test_random_path_stays_in_cone(self, pseudo_net, report):
        import random

        endpoint = pseudo_net.endpoints[0]
        cone = input_cone(pseudo_net, endpoint.driver)
        rng = random.Random(3)
        for _ in range(5):
            path = sample_random_path(pseudo_net, endpoint.driver, rng)
            assert set(path) <= cone
            assert path[-1] == endpoint.driver

    def test_random_path_arrival_bounded_by_critical(self, pseudo_net, report):
        import random

        endpoint = max(report.register_endpoints(), key=lambda e: e.arrival)
        net_endpoint = next(e for e in pseudo_net.endpoints if e.name == endpoint.name)
        rng = random.Random(1)
        for _ in range(5):
            path = sample_random_path(pseudo_net, net_endpoint.driver, rng)
            assert path_arrival(pseudo_net, report, path) <= endpoint.arrival + 1e-6

    def test_driving_launch_points(self, pseudo_net):
        endpoint = pseudo_net.endpoints[0]
        launches = driving_launch_points(pseudo_net, endpoint.driver)
        for vertex_id in launches:
            assert pseudo_net.vertices[vertex_id].is_launch_point


class TestNetworkStructure:
    def test_cycle_detection(self):
        network = TimingNetwork("cyclic")
        lib = pseudo_library()
        a = network.add_vertex(VertexKind.INPUT, name="a")
        g1 = network.add_vertex(VertexKind.GATE, fanins=[a], cell=lib.pick("NOT"))
        g2 = network.add_vertex(VertexKind.GATE, fanins=[g1], cell=lib.pick("NOT"))
        network.set_fanins(g1, [a, g2])
        with pytest.raises(ValueError):
            network.topological_order()

    def test_gate_without_cell_rejected(self):
        network = TimingNetwork("broken")
        a = network.add_vertex(VertexKind.INPUT, name="a")
        network.add_vertex(VertexKind.GATE, fanins=[a], cell=None)
        with pytest.raises(ValueError):
            network.validate()
@given(period=st.floats(min_value=100.0, max_value=2000.0))
def test_tns_never_positive_and_wns_bounds_tns(period, simple_design):
    network = from_bog(build_sog(simple_design))
    report = analyze(network, ClockConstraint(period=period))
    assert report.tns <= 0.0
    assert report.wns <= 0.0
    assert report.tns <= report.wns or report.tns == 0.0


class TestOrderedSums:
    """TNS and netlist area/leakage add their floats strictly left to right.

    From Python 3.12 on builtin ``sum`` of floats is compensated, and
    ``np.sum`` is pairwise, so either would let pinned digests depend on the
    interpreter.  ``[-1e16, -1.0, -1.0]`` tells them apart: a plain loop
    rounds each ``-1e16 - 1.0`` back to ``-1e16``.
    """

    CRAFTED = [-1e16, -1.0, -1.0]

    def test_crafted_list_sums_like_a_loop(self):
        total = 0.0
        for value in self.CRAFTED:
            total += value
        assert total == -1e16
        assert ordered_sum(self.CRAFTED) == total
        assert ordered_sum([]) == 0.0
        assert math.copysign(1.0, ordered_sum([-0.0, -0.0])) == 1.0  # a loop from 0.0

    def test_long_random_sums_like_a_loop(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=20_000) * 10.0 ** rng.integers(-8, 12, size=20_000)
        total = 0.0
        for value in values.tolist():
            total += value
        assert ordered_sum(values) == total

    def test_tns_is_an_ordered_sum(self):
        slacks = np.array(self.CRAFTED + [5.0])
        assert summarize_slack_array(slacks) == (-1e16, -1e16)

    def test_netlist_area_and_leakage_are_ordered_sums(self):
        library = nangate45_like()
        inverter = library.pick("INV")
        netlist = Netlist("sums", library)
        source = netlist.add_vertex(VertexKind.INPUT, name="a")
        for value in self.CRAFTED:
            cell = dataclasses.replace(inverter, area=-value, leakage=value)
            netlist.add_vertex(VertexKind.GATE, [source], cell)
        assert netlist.area() == 1e16
        assert netlist.leakage_power() == -1e16

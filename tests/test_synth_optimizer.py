"""Tests for timing-driven optimization: sizing, group_path, retime."""

import pytest

from repro.bog.builder import build_sog
from repro.sta import ClockConstraint, analyze
from repro.synth import (
    PathGroup,
    SynthesisOptions,
    map_to_netlist,
    optimize,
    synthesize,
    synthesize_bog,
)


@pytest.fixture()
def mapped(simple_design):
    sog = build_sog(simple_design)
    return map_to_netlist(sog, seed=2)


@pytest.fixture(scope="module")
def tight_clock(simple_design):
    sog = build_sog(simple_design)
    netlist = map_to_netlist(sog, seed=2)
    report = analyze(netlist, ClockConstraint(period=1000.0))
    max_arrival = report.summary()["max_arrival"]
    return ClockConstraint(period=0.7 * max_arrival)


def test_default_optimization_never_worsens_wns(mapped, tight_clock):
    before = analyze(mapped, tight_clock)
    after, trace = optimize(mapped, tight_clock, SynthesisOptions())
    # Area recovery is allowed to give back at most ~1 ps of WNS.
    assert after.wns >= before.wns - 1.5
    assert trace.passes >= 1


def test_sizing_upsizes_cells_on_critical_paths(mapped, tight_clock):
    _, trace = optimize(mapped, tight_clock, SynthesisOptions(area_recovery=False))
    assert trace.upsized > 0


def test_area_recovery_downsizes_noncritical_cells(mapped):
    loose_clock = ClockConstraint(period=5000.0)
    _, trace = optimize(mapped, loose_clock, SynthesisOptions())
    assert trace.downsized > 0


def test_group_path_options_touch_more_endpoints(simple_design, tight_clock):
    sog = build_sog(simple_design)
    default = synthesize_bog(sog, tight_clock, SynthesisOptions(), seed=4)

    signals = sorted({e.signal for e in default.report.endpoints})
    groups = [PathGroup("g1", signals[: len(signals) // 2]), PathGroup("g2", signals[len(signals) // 2 :])]
    grouped = synthesize_bog(sog, tight_clock, SynthesisOptions(path_groups=groups), seed=4)
    assert grouped.trace.upsized >= default.trace.upsized


def test_retime_moves_register(mapped, tight_clock):
    report = analyze(mapped, tight_clock)
    worst = min(report.register_endpoints(), key=lambda e: e.slack)
    n_endpoints_before = len(mapped.endpoints)
    moved = mapped.retime_endpoint_backward(worst.name)
    if moved:
        assert len(mapped.endpoints) != n_endpoints_before
        assert all(e.name != worst.name for e in mapped.endpoints)
        analyze(mapped, tight_clock)  # still acyclic / analyzable


def test_retime_on_output_endpoint_is_rejected(mapped):
    output_endpoints = [e for e in mapped.endpoints if e.kind == "output"]
    if output_endpoints:
        assert not mapped.retime_endpoint_backward(output_endpoints[0].name)


def test_synthesize_full_flow(simple_design):
    clock = ClockConstraint(period=400.0)
    result = synthesize(simple_design, clock)
    assert result.design == "simple"
    assert result.qor.area > 0
    assert result.runtime_seconds >= 0
    assert len(result.report.endpoints) == len(result.netlist.endpoints)


def test_options_flags():
    options = SynthesisOptions()
    assert not options.uses_grouping and not options.uses_retiming
    options = SynthesisOptions(path_groups=[PathGroup("g1", ["a"])], retime_signals=["a"])
    assert options.uses_grouping and options.uses_retiming


@pytest.mark.parametrize("clock_scale", [1.0, 20.0])
def test_default_synthesis_compiles_its_netlist_once(
    simple_design, tight_clock, clock_scale, monkeypatch
):
    """Sizing (tight clock) and area recovery (loose clock) swap cells, which
    are value edits: every analysis of one run reuses the first compile."""
    import repro.sta.network as network_module

    compiles = []
    compile_graph = network_module.CSRTimingGraph

    def counting_compile(*args):
        compiles.append(args[0])
        return compile_graph(*args)

    monkeypatch.setattr(network_module, "CSRTimingGraph", counting_compile)
    clock = ClockConstraint(period=clock_scale * tight_clock.period)
    result = synthesize_bog(build_sog(simple_design), clock, SynthesisOptions())
    edits = result.trace.upsized if clock_scale == 1.0 else result.trace.downsized
    assert edits > 0
    assert len(compiles) == 1

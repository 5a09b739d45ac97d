"""The array-native path front end against the kept per-path reference.

Production sampling (:func:`sample_design_paths`), extraction
(:func:`extract_path_dataset_uncached`) and the on-demand token builder
(:func:`path_token_sequences`) must reproduce the reference implementations
exactly: every sampled path, every feature, group, name, signal and label of
the dataset, and every token.  A sampled dataset's critical rows must equal
the unsampled extraction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import DesignRecord, build_design_record
from dataclasses import replace

from repro.core.features import (
    extract_path_dataset_reference,
    extract_path_dataset_uncached,
    path_token_sequences,
)
from repro.core.sampling import SamplingConfig, sample_design_paths, sample_design_paths_reference
from repro.liberty import pseudo_library
from repro.sta import ClockConstraint, TimingEndpoint, TimingNetwork, VertexKind, analyze
from repro.sta import paths as sta_paths
from repro.sta.paths import (
    driving_launch_points,
    launch_point_counts,
    trace_critical_path,
    trace_critical_paths,
)

VARIANTS = ("sog", "aig", "aimg", "xag")
SAMPLINGS = (
    SamplingConfig(),
    SamplingConfig(use_sampling=False),
    SamplingConfig(seed=7, k_max=8),
)
LIBRARY = pseudo_library()

SINGLE_REGISTER_VERILOG = """
module single (clk, a, q);
  input clk;
  input a;
  output q;
  reg r;

  assign q = r;

  always @(posedge clk) begin
    r <= a ^ r;
  end
endmodule
"""


def assert_same_dataset(production, reference):
    assert np.array_equal(production.features, reference.features)
    assert np.array_equal(production.groups, reference.groups)
    assert production.groups.dtype == reference.groups.dtype
    assert np.array_equal(production.endpoint_labels, reference.endpoint_labels)
    assert production.endpoint_names == reference.endpoint_names
    assert production.endpoint_signals == reference.endpoint_signals
    assert production.endpoint_designs == reference.endpoint_designs


def assert_same_tokens(production, reference):
    assert len(production) == len(reference)
    for ours, theirs in zip(production, reference):
        assert np.array_equal(ours, theirs)


def assert_matches_reference(record, variants=VARIANTS, endpoint_names=None):
    for variant in variants:
        network = record.pseudo_networks[variant]
        report = record.pseudo_reports[variant]
        for sampling in SAMPLINGS:
            assert sample_design_paths(
                network, report, sampling, endpoint_names
            ) == sample_design_paths_reference(network, report, sampling, endpoint_names)
            production = extract_path_dataset_uncached(record, variant, sampling, endpoint_names)
            reference, tokens = extract_path_dataset_reference(
                record, variant, sampling, endpoint_names
            )
            assert_same_dataset(production, reference)
            assert_same_tokens(
                path_token_sequences(record, variant, sampling, endpoint_names), tokens
            )
            assert_same_dataset(
                production.critical_rows(),
                extract_path_dataset_reference(
                    record, variant, replace(sampling, use_sampling=False), endpoint_names
                )[0],
            )


def _add_endpoint(network: TimingNetwork, signal: str, driver: int) -> None:
    network.add_endpoint(
        TimingEndpoint(
            name=f"{signal}[0]", signal=signal, bit=0, driver=driver, capture_cell=LIBRARY.pick("REG")
        )
    )


def _record(network: TimingNetwork) -> DesignRecord:
    """A record around one hand-built pseudo network (all the extractors read)."""
    report = analyze(network, ClockConstraint(period=1000.0))
    labels = {e.name: float(index) for index, e in enumerate(network.endpoints)}
    return DesignRecord(
        name=network.name,
        spec=None,
        design=None,
        source="",
        sog=None,
        pseudo_networks={"sog": network},
        pseudo_reports={"sog": report},
        synthesis=None,
        clock=report.clock,
        labels=labels,
    )


def _and_tree(n_inputs: int) -> TimingNetwork:
    """``n_inputs`` primary inputs reduced by a balanced AND tree into one endpoint."""
    network = TimingNetwork("tree")
    layer = [network.add_vertex(VertexKind.INPUT, name=f"i{k}") for k in range(n_inputs)]
    while len(layer) > 1:
        layer = [
            network.add_vertex(VertexKind.GATE, fanins=layer[k : k + 2], cell=LIBRARY.pick("AND"))
            for k in range(0, len(layer), 2)
        ]
    _add_endpoint(network, "q", layer[0])
    return network


class TestFixtureRecords:
    def test_tiny_records(self, tiny_records):
        for record in tiny_records:
            assert_matches_reference(record)

    def test_user_verilog_record(self, simple_record):
        assert_matches_reference(simple_record)

    def test_training_endpoint_subset(self, tiny_records):
        """The shuffled ``np.str_`` subset the bit-wise model draws for training."""
        for record in tiny_records:
            rng = np.random.default_rng(len(record.name))
            names = record.endpoint_names
            subset = list(rng.choice(names, size=max(1, len(names) // 2), replace=False))
            assert_matches_reference(record, endpoint_names=subset)


class TestEdgeCases:
    def test_endpoint_driven_by_a_launch_point(self):
        network = TimingNetwork("hold")
        register = network.add_vertex(VertexKind.REGISTER, cell=LIBRARY.pick("REG"), name="r")
        a = network.add_vertex(VertexKind.INPUT, name="a")
        gate = network.add_vertex(VertexKind.GATE, fanins=[register, a], cell=LIBRARY.pick("AND"))
        _add_endpoint(network, "hold", register)
        _add_endpoint(network, "next", gate)
        record = _record(network)
        samples = sample_design_paths(network, record.pseudo_reports["sog"])
        assert samples["hold[0]"].n_driving_registers == 1
        assert all(path.vertices == [register] for path in samples["hold[0]"].paths)
        assert_matches_reference(record, variants=("sog",))

    def test_gate_without_fanins(self):
        network = TimingNetwork("floating")
        a = network.add_vertex(VertexKind.INPUT, name="a")
        floating = network.add_vertex(VertexKind.GATE, fanins=[], cell=LIBRARY.pick("NOT"))
        gate = network.add_vertex(VertexKind.GATE, fanins=[floating, a], cell=LIBRARY.pick("AND"))
        _add_endpoint(network, "f", floating)
        _add_endpoint(network, "g", gate)
        record = _record(network)
        samples = sample_design_paths(network, record.pseudo_reports["sog"])
        assert samples["f[0]"].n_driving_registers == 0
        assert samples["f[0]"].paths[0].vertices == [floating]
        assert_matches_reference(record, variants=("sog",))

    def test_single_register_design(self):
        record = build_design_record(SINGLE_REGISTER_VERILOG, name="single")
        assert record.endpoint_names == ["r[0]"]
        assert_matches_reference(record)

    @pytest.mark.parametrize("first", ["const", "input"])
    def test_tied_fanins_resolve_to_the_first(self, first):
        """A constant and an input both arrive at 0.0 with the input slew."""
        network = TimingNetwork("tie")
        const = network.add_vertex(VertexKind.CONST, name="const0")
        a = network.add_vertex(VertexKind.INPUT, name="a")
        fanins = [const, a] if first == "const" else [a, const]
        gate = network.add_vertex(VertexKind.GATE, fanins=fanins, cell=LIBRARY.pick("AND"))
        _add_endpoint(network, "q", gate)
        record = _record(network)
        report = record.pseudo_reports["sog"]
        assert report.arrivals[const] == report.arrivals[a]
        assert report.slews[const] == report.slews[a]
        assert trace_critical_paths(network, report, [gate]) == [[fanins[0], gate]]
        assert trace_critical_path(network, report, "q[0]").vertices == [fanins[0], gate]
        assert_matches_reference(record, variants=("sog",))

    def test_launch_point_counts_across_bitset_blocks(self, monkeypatch):
        network = _and_tree(150)  # three 64-bit words of launch points
        drivers = list(range(len(network.vertices)))
        expected = [len(driving_launch_points(network, v)) for v in drivers]
        assert expected[-1] == 150
        assert launch_point_counts(network, drivers).tolist() == expected
        # One word per block: the bitsets are propagated in three passes.
        monkeypatch.setattr(sta_paths, "_BITSET_BLOCK_WORDS", len(network.vertices))
        assert launch_point_counts(network, drivers).tolist() == expected
        assert_matches_reference(_record(network), variants=("sog",))

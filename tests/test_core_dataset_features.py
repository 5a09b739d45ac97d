"""Tests for dataset construction, path sampling and feature extraction."""

import numpy as np
import pytest

from repro.bog import BOG, BOG_VARIANTS, build_variants
from repro.core.dataset import dataset_summary
from repro.core.features import (
    PATH_FEATURE_NAMES,
    bog_graph_data,
    combine_path_datasets,
    design_feature_vector,
    extract_path_dataset,
    path_token_sequences,
)
from repro.core.sampling import SamplingConfig, sample_count, sample_design_paths


class TestDataset:
    def test_record_contains_all_variants(self, tiny_record):
        assert isinstance(tiny_record.sog, BOG) and tiny_record.sog.variant == "sog"
        assert not hasattr(tiny_record, "bogs")
        assert tuple(tiny_record.pseudo_networks) == BOG_VARIANTS
        assert tuple(tiny_record.pseudo_reports) == BOG_VARIANTS
        for variant, graph in build_variants(tiny_record.design).items():
            assert len(tiny_record.pseudo_networks[variant]) == len(graph)

    def test_labels_cover_register_endpoints(self, tiny_record):
        rtl_registers = {
            e.name for e in tiny_record.sog.endpoints if e.kind == "register"
        }
        assert set(tiny_record.labels) == rtl_registers
        assert all(value >= 0 for value in tiny_record.labels.values())

    def test_clock_creates_violations(self, tiny_record):
        assert tiny_record.wns_label < 0.0
        assert tiny_record.tns_label <= tiny_record.wns_label

    def test_signal_labels_are_max_over_bits(self, tiny_record):
        signal_labels = tiny_record.signal_labels()
        for name, arrival in tiny_record.labels.items():
            signal = tiny_record.endpoint_signal(name)
            assert signal_labels[signal] >= arrival

    def test_slack_labels_consistent(self, tiny_record):
        endpoint_slacks = tiny_record.endpoint_slack_labels()
        label_slacks = {
            e.name: e.slack
            for e in tiny_record.label_report.endpoints
            if e.kind == "register"
        }
        for name, slack in endpoint_slacks.items():
            assert slack == pytest.approx(label_slacks[name], abs=1e-6)

    def test_summary_and_dataset_summary(self, tiny_records):
        rows = dataset_summary(tiny_records)
        assert len(rows) == len(tiny_records)
        assert {"name", "n_endpoints", "wns", "tns"} <= set(rows[0])

    def test_user_verilog_record(self, simple_record):
        assert simple_record.name == "simple"
        assert simple_record.labels  # acc and flag bits


class TestSampling:
    def test_sample_count_scales_and_caps(self):
        config = SamplingConfig(k_max=4)
        assert sample_count(1, config) >= 1
        assert sample_count(100, config) == 4
        assert sample_count(9, config) <= 4

    def test_sampling_disabled_gives_zero_random_paths(self):
        config = SamplingConfig(use_sampling=False)
        assert sample_count(50, config) == 0

    def test_design_paths_have_critical_first(self, tiny_record):
        network = tiny_record.pseudo_networks["sog"]
        report = tiny_record.pseudo_reports["sog"]
        samples = sample_design_paths(network, report, SamplingConfig(seed=1))
        assert set(samples) == set(tiny_record.endpoint_names)
        for endpoint_samples in samples.values():
            assert endpoint_samples.paths[0].is_critical
            assert all(not p.is_critical for p in endpoint_samples.paths[1:])
            assert endpoint_samples.n_driving_registers >= 0

    def test_sampling_reproducible_with_seed(self, tiny_record):
        network = tiny_record.pseudo_networks["sog"]
        report = tiny_record.pseudo_reports["sog"]
        a = sample_design_paths(network, report, SamplingConfig(seed=5))
        b = sample_design_paths(network, report, SamplingConfig(seed=5))
        name = tiny_record.endpoint_names[0]
        assert [p.vertices for p in a[name].paths] == [p.vertices for p in b[name].paths]


class TestFeatures:
    def test_feature_matrix_shape_and_finiteness(self, tiny_record):
        dataset = extract_path_dataset(tiny_record, "sog")
        assert dataset.features.shape[1] == len(PATH_FEATURE_NAMES)
        assert np.all(np.isfinite(dataset.features))
        assert dataset.n_endpoints == len(tiny_record.endpoint_names)
        assert len(path_token_sequences(tiny_record, "sog")) == dataset.n_paths
        assert dataset.groups.max() == dataset.n_endpoints - 1

    def test_no_sampling_gives_one_path_per_endpoint(self, tiny_record):
        dataset = extract_path_dataset(
            tiny_record, "sog", SamplingConfig(use_sampling=False)
        )
        assert dataset.n_paths == dataset.n_endpoints

    def test_endpoint_labels_match_record(self, tiny_record):
        dataset = extract_path_dataset(tiny_record, "sog")
        for name, label in zip(dataset.endpoint_names, dataset.endpoint_labels):
            assert label == pytest.approx(tiny_record.labels[name])

    def test_rank_percent_feature_in_range(self, tiny_record):
        dataset = extract_path_dataset(tiny_record, "sog")
        column = PATH_FEATURE_NAMES.index("design_rank_percent")
        assert dataset.features[:, column].min() >= 0.0
        assert dataset.features[:, column].max() <= 100.0

    def test_pseudo_arrival_feature_correlates_with_labels(self, tiny_records):
        datasets = [extract_path_dataset(r, "sog", SamplingConfig(use_sampling=False)) for r in tiny_records]
        combined = combine_path_datasets(datasets)
        column = PATH_FEATURE_NAMES.index("endpoint_pseudo_arrival")
        correlation = np.corrcoef(combined.features[:, column], combined.endpoint_labels)[0, 1]
        assert correlation > 0.4

    def test_combine_reindexes_groups(self, tiny_records):
        datasets = [extract_path_dataset(r, "sog") for r in tiny_records[:2]]
        combined = combine_path_datasets(datasets)
        assert combined.n_endpoints == sum(d.n_endpoints for d in datasets)
        assert combined.groups.max() == combined.n_endpoints - 1
        assert len(combined.endpoint_designs) == combined.n_endpoints

    def test_design_feature_vector(self, tiny_record):
        vector = design_feature_vector(tiny_record)
        assert np.all(np.isfinite(vector))
        assert vector[0] > 0  # sequential cells

    def test_gnn_graph_data(self, tiny_record):
        graph = bog_graph_data(tiny_record, "sog")
        assert graph.node_features.shape[0] == len(tiny_record.pseudo_networks["sog"])
        assert len(graph.endpoint_nodes) == len(tiny_record.labels)
        assert len(graph.edge_src) == len(graph.edge_dst)
        assert graph.endpoint_targets.min() >= 0
        # Node features: one-hot cell/kind label, fanout count, logic level / 10.
        network = tiny_record.pseudo_networks["sog"]
        labels = ("AND", "OR", "XOR", "NOT", "MUX", "REG", "input", "const")
        fanouts = network.fanouts()
        levels = [0] * len(network.vertices)
        for vertex_id in network.topological_order():
            fanins = network.vertices[vertex_id].fanins
            if fanins:
                levels[vertex_id] = 1 + max(levels[f] for f in fanins)
        expected = np.zeros((len(network.vertices), len(labels) + 2))
        for vertex in network.vertices:
            label = vertex.cell.function if vertex.cell is not None else vertex.kind.value
            expected[vertex.id, labels.index(label if label in labels else "const")] = 1.0
            expected[vertex.id, len(labels)] = len(fanouts[vertex.id])
            expected[vertex.id, len(labels) + 1] = levels[vertex.id] / 10.0
        assert np.array_equal(graph.node_features, expected)

    def test_variant_datasets_share_endpoints(self, tiny_record):
        sog = extract_path_dataset(tiny_record, "sog", SamplingConfig(use_sampling=False))
        aig = extract_path_dataset(tiny_record, "aig", SamplingConfig(use_sampling=False))
        assert sog.endpoint_names == aig.endpoint_names

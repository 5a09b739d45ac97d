"""Tests for the bit-wise / signal-wise / overall models and the GNN baseline.

These use deliberately small model configurations so the whole file runs in a
few tens of seconds; statistical quality is asserted loosely (the benchmarks
reproduce the paper's numbers with the full configuration).
"""

import numpy as np
import pytest

from repro.core.baselines import GNNBaselineConfig, GNNBitwiseBaseline
from repro.core.bitwise import BitwiseArrivalModel, BitwiseConfig
from repro.core.metrics import pearson_r
from repro.core.overall import OverallConfig, OverallTimingModel
from repro.core.dataset import build_design_record
from repro.core.features import PATH_FEATURE_NAMES, extract_path_dataset
from repro.core.sampling import SamplingConfig
from repro.core.signalwise import SignalwiseConfig, SignalwiseModel, _signal_feature_matrix
from tests.conftest import COMBINATIONAL_VERILOG


SMALL_BITWISE = BitwiseConfig(
    n_estimators=20,
    max_depth=4,
    max_train_endpoints_per_design=60,
    variants=("sog", "aig"),
)


@pytest.fixture(scope="module")
def fitted_bitwise(tiny_records):
    return BitwiseArrivalModel(SMALL_BITWISE).fit(tiny_records[:4])


@pytest.fixture(scope="module")
def bitwise_predictions(fitted_bitwise, tiny_records):
    return {record.name: fitted_bitwise.predict(record) for record in tiny_records}


class TestBitwise:
    def test_predictions_cover_all_endpoints(self, fitted_bitwise, tiny_records):
        test_record = tiny_records[4]
        predicted = fitted_bitwise.predict(test_record)
        assert set(predicted) == set(test_record.endpoint_names)
        assert all(np.isfinite(v) for v in predicted.values())

    def test_unseen_design_correlation(self, fitted_bitwise, tiny_records):
        test_record = tiny_records[4]
        metrics = fitted_bitwise.evaluate(test_record)
        assert metrics["r"] > 0.5
        assert 0.0 <= metrics["covr"] <= 100.0

    def test_single_variant_without_ensemble(self, tiny_records):
        config = BitwiseConfig(
            n_estimators=15,
            max_depth=3,
            variants=("sog",),
            ensemble=False,
            max_train_endpoints_per_design=50,
        )
        model = BitwiseArrivalModel(config).fit(tiny_records[:3])
        predicted = model.predict(tiny_records[3])
        assert set(predicted) == set(tiny_records[3].endpoint_names)

    def test_predict_before_fit_raises(self, tiny_record):
        with pytest.raises(RuntimeError):
            BitwiseArrivalModel().predict(tiny_record)

    def test_mlp_model_type(self, tiny_records):
        config = BitwiseConfig(
            model_type="mlp",
            variants=("sog",),
            ensemble=False,
            mlp_hidden=(24,),
            mlp_epochs=40,
            max_train_endpoints_per_design=50,
        )
        model = BitwiseArrivalModel(config).fit(tiny_records[:3])
        predicted = model.predict(tiny_records[3])
        labels = [tiny_records[3].labels[n] for n in predicted]
        assert pearson_r(labels, list(predicted.values())) > 0.2


def _per_signal_rows(record, bitwise_predictions, config):
    """Reference signal feature rows: one signal at a time, in sorted order."""
    dataset = extract_path_dataset(record, "sog", SamplingConfig(seed=config.seed)).critical_rows()
    by_signal = {}
    for index, signal in enumerate(dataset.endpoint_signals):
        by_signal.setdefault(signal, []).append(index)
    column = {name: PATH_FEATURE_NAMES.index(name) for name in PATH_FEATURE_NAMES}
    rows = []
    for signal in sorted(by_signal):
        indices = by_signal[signal]
        features = dataset.features[indices]
        if config.use_bitwise and bitwise_predictions is not None:
            bits = np.array(
                [bitwise_predictions.get(dataset.endpoint_names[i], 0.0) for i in indices]
            )
        else:
            bits = features[:, column["endpoint_pseudo_arrival"]]
        rows.append(
            [
                float(bits.max()),
                float(bits.mean()),
                float(bits.std()),
                float(len(indices)),
                float(features[:, column["cone_n_driving_regs"]].max()),
                float(features[:, column["design_rank_percent"]].min()),
                float(features[:, column["endpoint_pseudo_arrival"]].max()),
                float(features[:, column["path_n_levels"]].max()),
                float(features[0, column["design_n_total"]]),
            ]
        )
    return np.array(rows).reshape(-1, 9), sorted(by_signal)


class TestSignalwise:
    @pytest.mark.parametrize("use_bitwise", [True, False])
    def test_grouped_rows_match_the_per_signal_loop(
        self, tiny_records, bitwise_predictions, use_bitwise
    ):
        config = SignalwiseConfig(use_bitwise=use_bitwise)
        for record in tiny_records:
            predictions = bitwise_predictions[record.name]
            rows, signals = _signal_feature_matrix(record, predictions, config)
            expected, expected_signals = _per_signal_rows(record, predictions, config)
            assert signals == expected_signals
            assert np.array_equal(rows, expected), record.name

    def test_no_endpoints_give_no_rows(self):
        record = build_design_record(COMBINATIONAL_VERILOG, name="comb")
        rows, signals = _signal_feature_matrix(record, {}, SignalwiseConfig())
        assert rows.shape == (0, 9) and signals == []

    def test_fit_predict(self, tiny_records, bitwise_predictions):
        model = SignalwiseModel(SignalwiseConfig(n_estimators=20, ranker_estimators=30))
        model.fit(tiny_records[:4], bitwise_predictions)
        prediction = model.predict(tiny_records[4], bitwise_predictions[tiny_records[4].name])
        signal_labels = tiny_records[4].signal_labels()
        assert set(prediction["arrival"]) == set(signal_labels)
        assert set(prediction["ranking"]) == set(signal_labels)
        labels = [signal_labels[s] for s in sorted(signal_labels)]
        values = [prediction["arrival"][s] for s in sorted(signal_labels)]
        assert pearson_r(labels, values) > 0.4

    def test_ranked_signals_order(self, tiny_records, bitwise_predictions):
        model = SignalwiseModel(SignalwiseConfig(n_estimators=15, ranker_estimators=20))
        model.fit(tiny_records[:4], bitwise_predictions)
        record = tiny_records[4]
        ranked = model.ranked_signals(record, bitwise_predictions[record.name])
        assert sorted(ranked) == sorted(record.signal_labels())

    def test_without_bitwise_ablation(self, tiny_records):
        model = SignalwiseModel(
            SignalwiseConfig(use_bitwise=False, n_estimators=15, ranker_estimators=20)
        )
        model.fit(tiny_records[:4])
        prediction = model.predict(tiny_records[4])
        assert set(prediction["arrival"]) == set(tiny_records[4].signal_labels())


class TestOverall:
    def test_fit_predict_all_modes(self, tiny_records, bitwise_predictions):
        for mode in ("full", "sog_only", "design_only"):
            model = OverallTimingModel(OverallConfig(feature_mode=mode, n_estimators=15))
            model.fit(tiny_records[:4], bitwise_predictions)
            prediction = model.predict(
                tiny_records[4], bitwise_predictions[tiny_records[4].name]
            )
            assert prediction["wns"] <= 0.0
            assert prediction["tns"] <= 0.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            OverallConfig(feature_mode="bogus")


class TestGNNBaseline:
    def test_fit_predict_and_evaluate(self, tiny_records):
        baseline = GNNBitwiseBaseline(GNNBaselineConfig(epochs=30, hidden_size=16))
        baseline.fit(tiny_records[:3])
        predicted = baseline.predict(tiny_records[3])
        assert set(predicted) == set(tiny_records[3].endpoint_names)
        metrics = baseline.evaluate(tiny_records[3])
        assert set(metrics) == {"r", "r2", "mape", "covr"}

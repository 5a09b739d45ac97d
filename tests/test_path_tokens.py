"""Path tokens on demand and one extraction per variant.

The transformer digest below was computed at the commit before path
datasets stopped carrying token arrays, so it pins that building the token
sequences on demand leaves a fitted transformer's predictions bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import RTLTimer
from repro.core import bitwise, features
from repro.core.bitwise import BitwiseArrivalModel, BitwiseConfig
from repro.core.feature_cache import reset_feature_cache
from repro.core.features import (
    combine_path_datasets,
    extract_path_dataset_reference,
    extract_path_dataset_uncached,
)
from repro.core.sampling import SamplingConfig
from repro.runtime import RuntimeReport, activate

#: sha256 of a small transformer fit's predictions on its two training designs.
TRANSFORMER_PREDICTIONS_DIGEST = "77cb9eddb387cddc1fd390e70ef37f52ee1aa326c4cc3713036d1595ffb12b6a"


def _predictions_digest(predictions) -> str:
    digest = hashlib.sha256()
    for design in predictions:
        for name in sorted(design):
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(np.float64(design[name]).tobytes())
    return digest.hexdigest()


def test_transformer_predictions_are_pinned(tiny_records):
    records = tiny_records[:2]
    model = BitwiseArrivalModel(
        BitwiseConfig(model_type="transformer", transformer_epochs=2, variants=("sog", "aig"))
    ).fit(records)
    assert _predictions_digest([model.predict(r) for r in records]) == TRANSFORMER_PREDICTIONS_DIGEST


# ---------------------------------------------------------------------------
# One extraction per variant; no tokens outside the transformer
# ---------------------------------------------------------------------------

EXTRACT_STAGE = "features.extract_path_dataset"


@pytest.fixture(scope="module")
def default_timer(tiny_records):
    return RTLTimer().fit(tiny_records[:2])


@pytest.fixture
def fresh_feature_cache(tmp_path, monkeypatch):
    """An empty feature cache on a temp directory, so every key misses once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_feature_cache()
    yield
    reset_feature_cache()


def _extractions(run) -> int:
    report = RuntimeReport()
    with activate(report):
        run()
    return report.stage_calls.get(EXTRACT_STAGE, 0)


@pytest.mark.parametrize("entry", ["predict", "predict_batch"])
def test_cold_predict_extracts_each_variant_once(default_timer, tiny_records, fresh_feature_cache, entry):
    record = tiny_records[4]
    if entry == "predict":
        calls = _extractions(lambda: default_timer.predict(record))
    else:
        calls = _extractions(lambda: default_timer.predict_batch([record]))
    # The four sampled variants; the ensemble and the signal-wise model read
    # the critical rows of the SOG dataset instead of a fifth extraction.
    assert calls == len(default_timer.config.bitwise.variants) == 4


@pytest.mark.parametrize("entry", ["predict", "predict_batch"])
def test_uncached_predict_extracts_no_more_than_before(
    default_timer, tiny_records, fresh_feature_cache, entry
):
    record = dataclasses.replace(tiny_records[4], key=None)  # never cached
    if entry == "predict":
        calls = _extractions(lambda: default_timer.predict(record))
    else:
        calls = _extractions(lambda: default_timer.predict_batch([record]))
    # Without a cache nothing is extracted twice either: the signal-wise model
    # reads the critical rows of the bit-wise SOG dataset it is handed.
    assert calls == len(default_timer.config.bitwise.variants) == 4


@pytest.mark.parametrize(
    "config",
    [
        BitwiseConfig(n_estimators=5, max_depth=3, variants=("sog", "aig")),
        BitwiseConfig(model_type="mlp", mlp_hidden=(8,), mlp_epochs=3, variants=("sog", "aig")),
    ],
    ids=["tree", "mlp"],
)
def test_path_models_without_tokens_never_build_them(tiny_records, monkeypatch, config):
    def refuse(*args, **kwargs):
        raise AssertionError("token sequences built for a model that reads none")

    monkeypatch.setattr(bitwise, "path_token_sequences", refuse)
    monkeypatch.setattr(features, "path_token_sequences", refuse)
    model = BitwiseArrivalModel(config).fit(tiny_records[:2])
    assert model.predict(tiny_records[2])


def test_ensemble_rows_pair_each_endpoint_with_its_own_context(tiny_records, monkeypatch):
    """Every ensemble row's cone / design context is its own endpoint's."""
    captured = []
    ensemble_features = BitwiseArrivalModel._ensemble_features

    def capture(self, predictions, critical):
        rows, names = ensemble_features(self, predictions, critical)
        captured.append((rows, names))
        return rows, names

    monkeypatch.setattr(BitwiseArrivalModel, "_ensemble_features", capture)
    train, unseen = tiny_records[:2], tiny_records[2]
    model = BitwiseArrivalModel(BitwiseConfig(n_estimators=5, max_depth=3)).fit(train)
    model.predict(unseen)
    assert len(captured) == len(train) + 1  # fit per training design, then predict
    for record, (rows, names) in zip([*train, unseen], captured):
        unsampled, _ = extract_path_dataset_reference(
            record, "sog", SamplingConfig(use_sampling=False)
        )
        position = {name: row for row, name in enumerate(unsampled.endpoint_names)}
        assert sorted(names) == sorted(record.endpoint_names)
        expected = unsampled.features[[position[name] for name in names]][:, bitwise._CONTEXT_COLUMNS]
        assert np.array_equal(rows[:, -len(bitwise._CONTEXT_COLUMNS):], expected)


def test_critical_rows_of_combined_datasets(tiny_records):
    sampled = combine_path_datasets(
        [extract_path_dataset_uncached(r, "sog", SamplingConfig(seed=3)) for r in tiny_records]
    )
    unsampled = combine_path_datasets(
        [
            extract_path_dataset_uncached(r, "sog", SamplingConfig(use_sampling=False))
            for r in tiny_records
        ]
    )
    critical = sampled.critical_rows()
    assert np.array_equal(critical.features, unsampled.features)
    assert np.array_equal(critical.groups, unsampled.groups)
    assert critical.endpoint_names == unsampled.endpoint_names
    assert critical.endpoint_designs == unsampled.endpoint_designs

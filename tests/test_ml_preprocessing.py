"""Tests for scalers and cross-validation utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml import MinMaxScaler, StandardScaler, TargetScaler, group_kfold


def test_standard_scaler_zero_mean_unit_variance():
    rng = np.random.default_rng(0)
    X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
    scaled = StandardScaler().fit_transform(X)
    assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)


def test_standard_scaler_roundtrip():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    scaler = StandardScaler().fit(X)
    assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)


def test_standard_scaler_constant_column():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    scaled = StandardScaler().fit_transform(X)
    assert np.all(np.isfinite(scaled))


def test_minmax_scaler_range():
    rng = np.random.default_rng(2)
    X = rng.uniform(-10, 10, size=(100, 2))
    scaled = MinMaxScaler().fit_transform(X)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0


def test_target_scaler_roundtrip():
    y = np.array([10.0, 20.0, 30.0])
    scaler = TargetScaler().fit(y)
    assert np.allclose(scaler.inverse_transform(scaler.transform(y)), y)


def test_group_kfold_never_splits_a_group():
    groups = np.repeat([f"d{i}" for i in range(9)], 7)
    for train_idx, test_idx in group_kfold(groups, n_splits=3, seed=0):
        train_groups = set(groups[train_idx])
        test_groups = set(groups[test_idx])
        assert train_groups.isdisjoint(test_groups)
        assert len(train_idx) + len(test_idx) == len(groups)


def test_group_kfold_covers_every_group_exactly_once():
    groups = np.repeat([f"d{i}" for i in range(10)], 3)
    seen = []
    for _, test_idx in group_kfold(groups, n_splits=5, seed=3):
        seen.extend(sorted(set(groups[test_idx])))
    assert sorted(seen) == sorted(set(groups))


def test_group_kfold_requires_two_splits():
    with pytest.raises(ValueError):
        list(group_kfold(["a", "b"], n_splits=1))


@given(st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=40, unique=True))
def test_standard_scaler_is_monotone(values):
    X = np.array(values).reshape(-1, 1)
    scaled = StandardScaler().fit_transform(X).ravel()
    order = np.argsort(np.array(values), kind="stable")
    assert np.all(np.diff(scaled[order]) >= -1e-12)

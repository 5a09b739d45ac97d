"""Feature preprocessing and cross-validation utilities."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.ml.base import as_1d_array, as_2d_array


class StandardScaler:
    """Zero-mean / unit-variance feature scaling."""

    def fit(self, features: np.ndarray) -> "StandardScaler":
        array = as_2d_array(features)
        self.mean_ = array.mean(axis=0)
        self.scale_ = array.std(axis=0)
        self.scale_[self.scale_ == 0.0] = 1.0
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        array = as_2d_array(features)
        return (array - self.mean_) / self.scale_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

    def inverse_transform(self, features: np.ndarray) -> np.ndarray:
        array = as_2d_array(features)
        return array * self.scale_ + self.mean_

    def to_state(self) -> dict:
        """Serializable snapshot (same shape the estimators use)."""
        return {
            "estimator": "StandardScaler",
            "params": {},
            "fitted": {"mean": self.mean_.copy(), "scale": self.scale_.copy()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "StandardScaler":
        """Rebuild a fitted scaler from :meth:`to_state` output."""
        scaler = cls()
        scaler.mean_ = np.asarray(state["fitted"]["mean"], dtype=float)
        scaler.scale_ = np.asarray(state["fitted"]["scale"], dtype=float)
        return scaler


class MinMaxScaler:
    """Scale features into [0, 1] per column."""

    def fit(self, features: np.ndarray) -> "MinMaxScaler":
        array = as_2d_array(features)
        self.min_ = array.min(axis=0)
        span = array.max(axis=0) - self.min_
        span[span == 0.0] = 1.0
        self.span_ = span
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        array = as_2d_array(features)
        return (array - self.min_) / self.span_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

    def to_state(self) -> dict:
        """Serializable snapshot (same shape the estimators use)."""
        return {
            "estimator": "MinMaxScaler",
            "params": {},
            "fitted": {"min": self.min_.copy(), "span": self.span_.copy()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "MinMaxScaler":
        """Rebuild a fitted scaler from :meth:`to_state` output."""
        scaler = cls()
        scaler.min_ = np.asarray(state["fitted"]["min"], dtype=float)
        scaler.span_ = np.asarray(state["fitted"]["span"], dtype=float)
        return scaler


class TargetScaler:
    """Standardize a 1-D target vector (and invert predictions back)."""

    def fit(self, targets: np.ndarray) -> "TargetScaler":
        array = as_1d_array(targets)
        self.mean_ = float(array.mean()) if array.size else 0.0
        std = float(array.std()) if array.size else 1.0
        self.scale_ = std if std > 0 else 1.0
        return self

    def transform(self, targets: np.ndarray) -> np.ndarray:
        return (as_1d_array(targets) - self.mean_) / self.scale_

    def fit_transform(self, targets: np.ndarray) -> np.ndarray:
        return self.fit(targets).transform(targets)

    def inverse_transform(self, targets: np.ndarray) -> np.ndarray:
        return as_1d_array(targets) * self.scale_ + self.mean_

    def to_state(self) -> dict:
        """Serializable snapshot (same shape the estimators use)."""
        return {
            "estimator": "TargetScaler",
            "params": {},
            "fitted": {"mean": float(self.mean_), "scale": float(self.scale_)},
        }

    @classmethod
    def from_state(cls, state: dict) -> "TargetScaler":
        """Rebuild a fitted scaler from :meth:`to_state` output."""
        scaler = cls()
        scaler.mean_ = float(state["fitted"]["mean"])
        scaler.scale_ = float(state["fitted"]["scale"])
        return scaler


def group_kfold(groups: Sequence, n_splits: int, seed: int = 0) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Cross-validation folds that never split one group across train/test.

    This is the paper's evaluation protocol: 10-fold cross-validation where
    training and test *designs* are strictly different.  ``groups`` assigns a
    group label (design name) to every row; the generator yields
    ``(train_row_indices, test_row_indices)`` pairs.
    """
    labels = np.asarray(groups)
    unique = np.array(sorted(set(labels.tolist()), key=str))
    if n_splits < 2:
        raise ValueError("n_splits must be at least 2")
    n_splits = min(n_splits, len(unique))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(unique))
    folds: List[List] = [[] for _ in range(n_splits)]
    for position, group_index in enumerate(order):
        folds[position % n_splits].append(unique[group_index])
    for fold_groups in folds:
        test_mask = np.isin(labels, fold_groups)
        test_idx = np.where(test_mask)[0]
        train_idx = np.where(~test_mask)[0]
        yield train_idx, test_idx

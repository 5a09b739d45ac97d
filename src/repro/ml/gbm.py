"""Gradient boosted regression trees (XGBoost-style).

Implements second-order gradient boosting with shrinkage, row subsampling and
feature subsampling on top of :class:`repro.ml.tree.NewtonTreeRegressor`.
Besides plain squared-error regression, the booster accepts a pluggable
objective, which is how RTL-Timer's customized *max arrival time* loss
(Equation 3 of the paper) is trained end to end: the objective sees the
current predictions of all sampled paths of an endpoint, takes the maximum,
and routes the gradient to the path that achieved it.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np

from repro.ml.base import Estimator, as_1d_array, as_2d_array
from repro.ml.tree import NewtonTreeRegressor, PackedForest, bin_feature_matrix
from repro.runtime.report import stage as _stage


class Objective(Protocol):
    """Pluggable boosting objective."""

    def initial_prediction(self, targets: np.ndarray) -> float:
        """Constant base score the booster starts from."""

    def gradients(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row gradient and hessian of the loss at ``predictions``."""

    def loss(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Scalar training loss (for monitoring / early stopping)."""


class SquaredErrorObjective:
    """Standard 0.5 * (y - p)^2 objective."""

    def initial_prediction(self, targets: np.ndarray) -> float:
        return float(np.mean(targets)) if len(targets) else 0.0

    def gradients(self, predictions, targets):
        grad = predictions - targets
        hess = np.ones_like(grad)
        return grad, hess

    def loss(self, predictions, targets) -> float:
        return float(0.5 * np.mean((predictions - targets) ** 2))


class HuberObjective:
    """Huber loss: quadratic near zero, linear in the tails (robust)."""

    def __init__(self, delta: float = 1.0):
        self.delta = delta

    def initial_prediction(self, targets: np.ndarray) -> float:
        return float(np.median(targets)) if len(targets) else 0.0

    def gradients(self, predictions, targets):
        residual = predictions - targets
        grad = np.clip(residual, -self.delta, self.delta)
        hess = (np.abs(residual) <= self.delta).astype(float)
        hess[hess == 0.0] = 1e-2
        return grad, hess

    def loss(self, predictions, targets) -> float:
        residual = np.abs(predictions - targets)
        quadratic = np.minimum(residual, self.delta)
        linear = residual - quadratic
        return float(np.mean(0.5 * quadratic**2 + self.delta * linear))


class GradientBoostingRegressor(Estimator):
    """Second-order gradient boosting over regression trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_samples_leaf: int = 3,
        subsample: float = 1.0,
        colsample: float = 1.0,
        reg_lambda: float = 1.0,
        objective: Optional[Objective] = None,
        early_stopping_rounds: Optional[int] = None,
        splitter: str = "hist",
        max_bins: Optional[int] = None,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.colsample = colsample
        self.reg_lambda = reg_lambda
        self.objective = objective or SquaredErrorObjective()
        self.early_stopping_rounds = early_stopping_rounds
        self.splitter = splitter
        self.max_bins = max_bins
        self.seed = seed

    # -- training --------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostingRegressor":
        with _stage(f"ml.fit_{self.splitter}"):
            return self._fit(features, targets)

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostingRegressor":
        X = as_2d_array(features)
        y = as_1d_array(targets)
        if len(X) != len(y):
            raise ValueError("features and targets must have the same number of rows")
        rng = np.random.default_rng(self.seed)

        # Bin every feature column once per fit; each boosting round reuses
        # the codes (subset by the subsample mask) instead of re-binning.
        binned = bin_feature_matrix(X, self.max_bins) if self.splitter == "hist" else None

        self.base_score_ = self.objective.initial_prediction(y)
        predictions = np.full(len(y), self.base_score_)
        self.trees_: list[NewtonTreeRegressor] = []
        self.train_losses_: list[float] = []
        best_loss = np.inf
        rounds_since_best = 0

        for round_index in range(self.n_estimators):
            grad, hess = self.objective.gradients(predictions, y)

            if self.subsample < 1.0:
                mask = rng.random(len(y)) < self.subsample
                if not np.any(mask):
                    mask[rng.integers(len(y))] = True
            else:
                mask = np.ones(len(y), dtype=bool)

            tree = NewtonTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.colsample if self.colsample < 1.0 else None,
                reg_lambda=self.reg_lambda,
                splitter=self.splitter,
                max_bins=self.max_bins,
                seed=int(rng.integers(2**31)),
            )
            round_binned = None
            full_batch = bool(mask.all())
            if binned is not None:
                round_binned = binned if full_batch else binned.take(mask)
            tree.fit_gradients(
                X if full_batch else X[mask], grad[mask], hess[mask], binned=round_binned
            )
            # On a full batch the fit already assigned every training row to
            # its leaf; reuse those values instead of re-routing X.
            update = tree.training_predictions_ if full_batch else tree.predict(X)
            predictions = predictions + self.learning_rate * update
            # Read once; kept, it would ride in every pickle of the model.
            del tree.training_predictions_
            self.trees_.append(tree)

            loss = self.objective.loss(predictions, y)
            self.train_losses_.append(loss)
            if self.early_stopping_rounds is not None:
                if loss < best_loss - 1e-12:
                    best_loss = loss
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        break
        self._pack()
        return self

    def _pack(self) -> None:
        # Packed once, when the trees are final: serving threads share one
        # model, so predict must never build it lazily.
        self.forest_ = PackedForest.pack(
            [tree.flat_ for tree in self.trees_], scale=self.learning_rate
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        self._check_fitted("trees_")
        X = as_2d_array(features)
        with _stage("ml.predict_flat"):
            return self.forest_.predict(X, self.base_score_)

    # -- serialization ----------------------------------------------------------

    def _state_params(self) -> dict:
        # The objective can hold training-time arrays (GroupedMaxSquaredError
        # keeps the endpoint groups and labels); inference never touches it,
        # so the state records only a descriptor instead of the live object.
        params = self.get_params()
        objective = params.pop("objective")
        descriptor = {"type": type(objective).__name__}
        if isinstance(objective, HuberObjective):
            descriptor["delta"] = objective.delta
        params["objective_descriptor"] = descriptor
        return params

    def _fitted_state(self) -> dict:
        self._check_fitted("trees_")
        return {
            "base_score": float(self.base_score_),
            "trees": [tree.to_state() for tree in self.trees_],
            "train_losses": [float(loss) for loss in self.train_losses_],
        }

    def _restore_fitted(self, fitted) -> None:
        self.base_score_ = float(fitted["base_score"])
        self.trees_ = [NewtonTreeRegressor.from_state(state) for state in fitted["trees"]]
        self.train_losses_ = list(fitted.get("train_losses", []))
        self._pack()

    @classmethod
    def _params_from_state(cls, params) -> dict:
        params = dict(params)
        descriptor = params.pop("objective_descriptor", {"type": "SquaredErrorObjective"})
        if descriptor.get("type") == "HuberObjective":
            params["objective"] = HuberObjective(delta=descriptor.get("delta", 1.0))
        # Any other objective (incl. GroupedMaxSquaredError) restores as the
        # default squared error: predict() is objective-free, and refitting a
        # restored model needs fresh training groups anyway.
        return params

    def staged_predict(self, features: np.ndarray) -> np.ndarray:
        """Prediction matrix after each boosting round (rounds x rows)."""
        self._check_fitted("trees_")
        return self.forest_.staged_predict(features, self.base_score_)

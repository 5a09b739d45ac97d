"""Bit-wise endpoint arrival-time modelling (Section 3.4.1 of the paper).

For every BOG representation variant a *path model* is trained with the
customized max arrival-time loss: the model scores every sampled path of an
endpoint and the endpoint prediction is the maximum of the path scores.
Three path model families are supported (tree-based boosting, MLP,
transformer), mirroring the paper's comparison.

On top of the per-variant predictions an *ensemble* model (tree-based) fuses
the four representations — their individual predictions plus max/min/mean/std
statistics and the cone/design features — into the final bit-wise arrival
prediction, which is what reduces the cross-design variance in Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bog.graph import BOG_VARIANTS
from repro.core.dataset import DesignRecord
from repro.core.features import (
    PATH_FEATURE_NAMES,
    PathDataset,
    combine_path_datasets,
    extract_path_dataset,
)
from repro.core.sampling import SamplingConfig
from repro.core.state import config_from_state, config_to_state
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.losses import GroupedMaxSquaredError, group_max
from repro.ml.mlp import MLPRegressor
from repro.ml.preprocessing import StandardScaler, TargetScaler
from repro.ml.serialize import estimator_from_state, estimator_to_state
from repro.ml.transformer import TransformerPathRegressor
from repro.runtime.parallel import canonicalize, fan_out


@dataclass(frozen=True)
class BitwiseConfig:
    """Configuration of the bit-wise arrival model."""

    model_type: str = "tree"  # "tree" | "mlp" | "transformer"
    variants: Tuple[str, ...] = BOG_VARIANTS
    ensemble: bool = True
    use_sampling: bool = True
    n_estimators: int = 60
    max_depth: int = 6
    learning_rate: float = 0.12
    mlp_hidden: Tuple[int, ...] = (64, 64)
    mlp_epochs: int = 150
    transformer_epochs: int = 60
    max_train_endpoints_per_design: Optional[int] = 250
    seed: int = 0

    def sampling(self) -> SamplingConfig:
        return SamplingConfig(use_sampling=self.use_sampling, seed=self.seed)


class _VariantPathModel:
    """One path model (per BOG variant), trained with the max-arrival loss."""

    def __init__(self, config: BitwiseConfig, variant: str):
        self.config = config
        self.variant = variant
        self.scaler = StandardScaler()
        self.target_scaler = TargetScaler()

    # -- training ----------------------------------------------------------------

    def fit(self, dataset: PathDataset) -> "_VariantPathModel":
        config = self.config
        features = self.scaler.fit_transform(dataset.features)
        labels = self.target_scaler.fit_transform(dataset.endpoint_labels)

        if config.model_type == "tree":
            objective = GroupedMaxSquaredError(dataset.groups, labels)
            self.model_ = GradientBoostingRegressor(
                n_estimators=config.n_estimators,
                learning_rate=config.learning_rate,
                max_depth=config.max_depth,
                min_samples_leaf=4,
                colsample=0.8,
                objective=objective,
                seed=config.seed,
            )
            self.model_.fit(features, objective.row_targets())
        elif config.model_type == "mlp":
            self.model_ = MLPRegressor(
                hidden_sizes=config.mlp_hidden,
                epochs=config.mlp_epochs,
                seed=config.seed,
            )
            self.model_.fit_grouped_max(features, dataset.groups, labels)
        elif config.model_type == "transformer":
            self.model_ = TransformerPathRegressor(
                epochs=config.transformer_epochs, seed=config.seed
            )
            self.model_.fit(
                dataset.tokens,
                features,
                labels[dataset.groups],
                groups=dataset.groups,
                group_targets=labels,
            )
        else:
            raise ValueError(f"unknown bit-wise model type {config.model_type!r}")
        return self

    # -- inference ---------------------------------------------------------------

    def predict_design(self, record: DesignRecord) -> Tuple[List[str], np.ndarray]:
        """Endpoint names and per-endpoint arrival predictions of one design."""
        dataset = extract_path_dataset(record, self.variant, self.config.sampling())
        return dataset.endpoint_names, self.predict_endpoints(dataset)

    def predict_endpoints(self, dataset: PathDataset) -> np.ndarray:
        """Per-endpoint arrival predictions (max over the endpoint's paths)."""
        features = self.scaler.transform(dataset.features)
        if self.config.model_type == "transformer":
            path_scores = self.model_.predict(dataset.tokens, features)
        else:
            path_scores = self.model_.predict(features)
        maxima = group_max(path_scores, dataset.groups, dataset.n_endpoints)
        return self.target_scaler.inverse_transform(maxima)

    # -- serialization -------------------------------------------------------------

    def to_state(self) -> dict:
        """Snapshot the fitted path model (scalers + underlying estimator)."""
        return {
            "variant": self.variant,
            "scaler": self.scaler.to_state(),
            "target_scaler": self.target_scaler.to_state(),
            "model": estimator_to_state(self.model_),
        }

    @classmethod
    def from_state(cls, config: BitwiseConfig, state: dict) -> "_VariantPathModel":
        model = cls(config, state["variant"])
        model.scaler = StandardScaler.from_state(state["scaler"])
        model.target_scaler = TargetScaler.from_state(state["target_scaler"])
        model.model_ = estimator_from_state(state["model"])
        return model


class BitwiseArrivalModel:
    """Per-variant path models plus the representation ensemble."""

    def __init__(self, config: Optional[BitwiseConfig] = None):
        self.config = config or BitwiseConfig()

    # -- dataset helpers ------------------------------------------------------------

    def _extract(self, record: DesignRecord, variant: str, training: bool) -> PathDataset:
        endpoint_names = None
        limit = self.config.max_train_endpoints_per_design
        if training and limit is not None and len(record.endpoint_names) > limit:
            rng = np.random.default_rng(self.config.seed + len(record.name))
            endpoint_names = list(
                rng.choice(record.endpoint_names, size=limit, replace=False)
            )
        return extract_path_dataset(
            record, variant, self.config.sampling(), endpoint_names
        )

    # -- training --------------------------------------------------------------------

    def fit(self, records: Sequence[DesignRecord]) -> "BitwiseArrivalModel":
        """Fit every variant's path model, then the ensemble over them.

        The variant fits are independent, so they fan out as one forked
        worker task each (:func:`repro.runtime.parallel.fan_out`); each task
        also predicts the training designs with its model, the ensemble's
        inputs.  After the fit, ``training_predictions_[i]`` is
        :meth:`predict` of ``records[i]``, bit for bit.
        """
        config = self.config
        ensembled = config.ensemble and len(config.variants) > 1
        fitted: Dict[int, Tuple[_VariantPathModel, list]] = {}

        def fit_variant(index: int) -> Tuple[_VariantPathModel, list]:
            variant = config.variants[index]
            datasets = [self._extract(record, variant, training=True) for record in records]
            model = _VariantPathModel(config, variant).fit(combine_path_datasets(datasets))
            if not (ensembled or index == 0):
                return model, []
            # The ensemble's inputs (without one, the fit's predictions).
            return model, [model.predict_design(record) for record in records]

        def collect(index: int, result: Tuple[_VariantPathModel, list], blob: Optional[bytes]) -> None:
            if blob is not None:
                # A worker's copy: give it the parent's config (and whatever
                # it shares with it) and object sharing, so the bundle bytes
                # match an in-process fit.
                result = canonicalize(result, result[0].config, config)
            fitted[index] = result

        fan_out(
            fit_variant,
            len(config.variants),
            collect,
            stage="bitwise.fit",
            token=lambda index: config.variants[index],
        )
        self.variant_models_ = {
            variant: fitted[index][0] for index, variant in enumerate(config.variants)
        }
        predicted = {variant: fitted[index][1] for index, variant in enumerate(config.variants)}
        if ensembled:
            self.training_predictions_ = self._fit_ensemble(records, predicted)
        else:
            self.training_predictions_ = [
                dict(zip(names, values)) for names, values in predicted[config.variants[0]]
            ]
        return self

    def _fit_ensemble(
        self,
        records: Sequence[DesignRecord],
        predicted: Dict[str, List[Tuple[List[str], np.ndarray]]],
    ) -> List[Dict[str, float]]:
        """Fit the ensemble on each variant's ``predict_design`` of ``records``.

        Returns the ensemble's predictions for ``records``.
        """
        rows: List[np.ndarray] = []
        labels: List[float] = []
        design_names: List[List[str]] = []
        for position, record in enumerate(records):
            values = {variant: outputs[position][1] for variant, outputs in predicted.items()}
            # Every variant lists the endpoints in the first variant's order.
            names = predicted[self.config.variants[0]][position][0]
            features, names = self._ensemble_features(record, (values, names))
            rows.append(features)
            design_names.append(names)
            labels.extend(record.labels[name] for name in names)
        X = np.vstack(rows)
        y = np.array(labels)
        self.ensemble_scaler_ = StandardScaler()
        self.ensemble_target_scaler_ = TargetScaler()
        Xs = self.ensemble_scaler_.fit_transform(X)
        ys = self.ensemble_target_scaler_.fit_transform(y)
        self.ensemble_model_ = GradientBoostingRegressor(
            n_estimators=self.config.n_estimators,
            learning_rate=self.config.learning_rate,
            max_depth=4,
            min_samples_leaf=4,
            seed=self.config.seed,
        )
        self.ensemble_model_.fit(Xs, ys)
        # Scaling and tree routing work row by row, so predicting the stacked
        # matrix once equals predicting each design on its own.
        predictions = self.ensemble_target_scaler_.inverse_transform(
            self.ensemble_model_.predict(Xs)
        )
        bounds = np.cumsum([len(names) for names in design_names])[:-1]
        return [
            dict(zip(names, values))
            for names, values in zip(design_names, np.split(predictions, bounds))
        ]

    # -- inference --------------------------------------------------------------------

    def _variant_predictions(self, record: DesignRecord) -> Tuple[Dict[str, np.ndarray], List[str]]:
        predictions: Dict[str, np.ndarray] = {}
        names: Optional[List[str]] = None
        for variant, model in self.variant_models_.items():
            variant_names, predictions[variant] = model.predict_design(record)
            if names is None:
                names = variant_names
        assert names is not None
        return predictions, names

    def _ensemble_features(
        self,
        record: DesignRecord,
        predicted: Optional[Tuple[Dict[str, np.ndarray], List[str]]] = None,
    ) -> Tuple[np.ndarray, List[str]]:
        predictions, names = predicted or self._variant_predictions(record)
        stacked = np.column_stack([predictions[v] for v in self.variant_models_])
        stats = np.column_stack(
            [
                stacked.max(axis=1),
                stacked.min(axis=1),
                stacked.mean(axis=1),
                stacked.std(axis=1),
            ]
        )
        # Cone / design context from the SOG dataset (first variant).
        reference_variant = next(iter(self.variant_models_))
        reference = extract_path_dataset(
            record, reference_variant, SamplingConfig(use_sampling=False)
        )
        context_columns = [
            PATH_FEATURE_NAMES.index("cone_n_driving_regs"),
            PATH_FEATURE_NAMES.index("design_rank_percent"),
            PATH_FEATURE_NAMES.index("design_n_total"),
            PATH_FEATURE_NAMES.index("endpoint_pseudo_arrival"),
            PATH_FEATURE_NAMES.index("endpoint_fanout"),
        ]
        context = reference.features[:, context_columns]
        # The reference dataset has exactly one (critical) path per endpoint, so
        # its rows align with the endpoint order.
        if len(context) != len(names):
            context = context[: len(names)]
        return np.hstack([stacked, stats, context]), names

    def predict(self, record: DesignRecord) -> Dict[str, float]:
        """Predicted post-synthesis arrival time for every register endpoint."""
        if not hasattr(self, "variant_models_"):
            raise RuntimeError("BitwiseArrivalModel must be fitted before predict()")
        if getattr(self, "ensemble_model_", None) is not None and self.config.ensemble and len(
            self.config.variants
        ) > 1:
            features, names = self._ensemble_features(record)
            scaled = self.ensemble_scaler_.transform(features)
            predictions = self.ensemble_target_scaler_.inverse_transform(
                self.ensemble_model_.predict(scaled)
            )
            return dict(zip(names, predictions))
        predictions, names = self._variant_predictions(record)
        single = predictions[next(iter(self.variant_models_))]
        return dict(zip(names, single))

    def evaluate(self, record: DesignRecord) -> Dict[str, float]:
        """R / MAPE / COVR of the bit-wise predictions on one design."""
        from repro.core.metrics import regression_metrics

        predicted = self.predict(record)
        names = [n for n in record.endpoint_names if n in predicted]
        labels = [record.labels[n] for n in names]
        values = [predicted[n] for n in names]
        return regression_metrics(labels, values)

    # -- serialization --------------------------------------------------------------

    def to_state(self) -> dict:
        """Snapshot the per-variant path models plus the ensemble stage."""
        if not hasattr(self, "variant_models_"):
            raise RuntimeError("BitwiseArrivalModel must be fitted before to_state()")
        state = {
            "model": "BitwiseArrivalModel",
            "config": config_to_state(self.config),
            "variants": {
                variant: model.to_state()
                for variant, model in self.variant_models_.items()
            },
            "ensemble": None,
        }
        if getattr(self, "ensemble_model_", None) is not None:
            state["ensemble"] = {
                "scaler": self.ensemble_scaler_.to_state(),
                "target_scaler": self.ensemble_target_scaler_.to_state(),
                "model": estimator_to_state(self.ensemble_model_),
            }
        return state

    @classmethod
    def from_state(cls, state: dict) -> "BitwiseArrivalModel":
        """Rebuild a fitted model; predictions are bit-identical to the source."""
        model = cls(config_from_state(state["config"]))
        model.variant_models_ = {
            variant: _VariantPathModel.from_state(model.config, variant_state)
            for variant, variant_state in state["variants"].items()
        }
        ensemble = state.get("ensemble")
        if ensemble is not None:
            model.ensemble_scaler_ = StandardScaler.from_state(ensemble["scaler"])
            model.ensemble_target_scaler_ = TargetScaler.from_state(ensemble["target_scaler"])
            model.ensemble_model_ = estimator_from_state(ensemble["model"])
        return model

"""Tests for regression trees and gradient boosting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml.tree import ROUTE_CHUNK_ROWS
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    GroupedMaxSquaredError,
    HuberObjective,
    LambdaMARTRanker,
    NewtonTreeRegressor,
    PackedForest,
    bin_feature_matrix,
    group_max,
    resolve_max_bins,
)


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 6))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + np.sin(X[:, 2]) + 0.1 * rng.normal(size=600)
    return X, y


class TestDecisionTree:
    def test_fits_constant_data(self):
        X = np.zeros((20, 3))
        y = np.full(20, 5.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(tree.predict(X), 5.0)

    def test_perfect_split_on_single_feature(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0]] * 5)
        y = np.array([0.0, 0.0, 1.0, 1.0] * 5)
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=1, min_samples_split=2).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_max_depth_zero_gives_single_leaf(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert tree.n_leaves() == 1
        assert tree.depth() == 0

    def test_depth_respected(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1).fit(X, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=50).fit(X, y)
        assert tree.n_leaves() <= len(y) // 50 + 1

    def test_improves_over_mean_prediction(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=6).fit(X[:400], y[:400])
        pred = tree.predict(X[400:])
        mse_tree = np.mean((pred - y[400:]) ** 2)
        mse_mean = np.mean((y[:400].mean() - y[400:]) ** 2)
        assert mse_tree < mse_mean

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((2, 2)))


class TestNewtonTree:
    def test_newton_leaf_value_matches_mean_for_squared_loss(self):
        X = np.zeros((10, 1))
        y = np.arange(10, dtype=float)
        tree = NewtonTreeRegressor(max_depth=0, reg_lambda=0.0).fit(X, y)
        assert tree.predict(X[:1])[0] == pytest.approx(y.mean())

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    def test_integer_weights_match_repeated_rows(self, splitter):
        """A weight of k fits like the row repeated k times (weighted Newton step)."""
        rng = np.random.default_rng(15)
        X = rng.integers(0, 6, size=(60, 3)).astype(float)
        y = X[:, 0] - 2.0 * X[:, 1] + rng.normal(size=60)
        weights = rng.integers(1, 6, size=60)
        params = dict(splitter=splitter, max_depth=3, min_samples_leaf=1, min_samples_split=2)
        weighted = NewtonTreeRegressor(**params).fit(X, y, sample_weight=weights)
        repeated = NewtonTreeRegressor(**params).fit(
            np.repeat(X, weights, axis=0), np.repeat(y, weights)
        )
        unweighted = NewtonTreeRegressor(**params).fit(X, y)
        assert weighted.predict(X) == pytest.approx(repeated.predict(X))
        assert not np.allclose(weighted.predict(X), unweighted.predict(X))

    def test_regularization_shrinks_leaves(self):
        X = np.zeros((10, 1))
        y = np.full(10, 4.0)
        tree = NewtonTreeRegressor(max_depth=0, reg_lambda=10.0).fit(X, y)
        assert 0 < tree.predict(X[:1])[0] < 4.0


class TestGradientBoosting:
    def test_beats_single_tree(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=3).fit(X[:400], y[:400])
        gbm = GradientBoostingRegressor(n_estimators=50, max_depth=3).fit(X[:400], y[:400])
        mse_tree = np.mean((tree.predict(X[400:]) - y[400:]) ** 2)
        mse_gbm = np.mean((gbm.predict(X[400:]) - y[400:]) ** 2)
        assert mse_gbm < mse_tree

    def test_training_loss_decreases(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=30).fit(X, y)
        assert gbm.train_losses_[-1] < gbm.train_losses_[0]

    def test_early_stopping_limits_trees(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(
            n_estimators=200, learning_rate=0.5, early_stopping_rounds=3
        ).fit(X[:100], y[:100])
        assert len(gbm.trees_) <= 200

    def test_huber_objective_robust_to_outliers(self, regression_data):
        X, y = regression_data
        y_out = y.copy()
        y_out[::25] += 50.0
        huber = GradientBoostingRegressor(n_estimators=40, objective=HuberObjective(1.0))
        huber.fit(X[:400], y_out[:400])
        pred = huber.predict(X[400:])
        assert np.corrcoef(pred, y[400:])[0, 1] > 0.8

    def test_subsample_and_colsample(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=20, subsample=0.5, colsample=0.5).fit(X, y)
        assert np.corrcoef(gbm.predict(X), y)[0, 1] > 0.7

    def test_staged_predict_shape(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=10).fit(X[:100], y[:100])
        stages = gbm.staged_predict(X[:20])
        assert stages.shape == (10, 20)


class TestGroupedMaxObjective:
    def test_recovers_max_structure(self):
        rng = np.random.default_rng(2)
        groups = np.repeat(np.arange(150), 3)
        X = rng.normal(size=(450, 4))
        path_value = X @ np.array([2.0, -1.0, 0.5, 0.0])
        labels = np.array([path_value[groups == g].max() for g in range(150)])
        objective = GroupedMaxSquaredError(groups, labels)
        gbm = GradientBoostingRegressor(n_estimators=60, max_depth=3, objective=objective)
        gbm.fit(X, objective.row_targets())
        predicted = group_max(gbm.predict(X), groups, 150)
        assert np.corrcoef(predicted, labels)[0, 1] > 0.95

    def test_invalid_group_ids_rejected(self):
        with pytest.raises(ValueError):
            GroupedMaxSquaredError(np.array([0, 1, 5]), np.array([1.0, 2.0]))


def _variance_split_gain(X, y, weights, feature, threshold):
    """Reference weighted variance-reduction gain of one split."""

    def half_score(mask):
        w = weights[mask]
        return float(np.dot(y[mask], w)) ** 2 / max(float(w.sum()), 1e-12)

    mask = X[:, feature] <= threshold
    parent = float(np.dot(y, weights)) ** 2 / max(float(weights.sum()), 1e-12)
    return half_score(mask) + half_score(~mask) - parent


class TestBinning:
    def test_low_cardinality_gets_one_bin_per_value(self):
        X = np.array([[0.0], [2.0], [2.0], [5.0], [9.0]])
        binned = bin_feature_matrix(X, max_bins=256)
        assert len(binned.cuts[0]) == 3  # 4 distinct values -> 3 cut points
        assert list(binned.codes[:, 0]) == [0, 1, 1, 2, 3]

    def test_codes_are_monotone_in_value(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3000, 2))
        binned = bin_feature_matrix(X, max_bins=16)
        for feature in range(2):
            order = np.argsort(X[:, feature])
            codes = binned.codes[order, feature].astype(int)
            assert np.all(np.diff(codes) >= 0)
            assert codes.max() <= 15

    def test_cut_points_partition_like_thresholds(self):
        rng = np.random.default_rng(1)
        column = rng.normal(size=(500, 1))
        binned = bin_feature_matrix(column, max_bins=8)
        for index, cut in enumerate(binned.cuts[0]):
            assert np.array_equal(
                binned.codes[:, 0] <= index, column[:, 0] <= cut
            )

    def test_env_knob_overrides_budget(self):
        # No knob overrides the budget: it is the max_bins argument, clamped
        # to 2..256 (uint8 bin codes), or 256 when unset.
        assert resolve_max_bins() == 256
        assert resolve_max_bins(32) == 32
        assert resolve_max_bins(8) == 8
        assert resolve_max_bins(100000) == 256  # uint8 ceiling
        assert resolve_max_bins(1) == 2


class TestSplitterEquivalence:
    """Histogram vs exact split finding on bin-exact (low-cardinality) data."""

    def _data(self, seed=3, rows=400):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 25, size=(rows, 5)).astype(float)
        y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + rng.normal(size=rows)
        return X, y

    def test_identical_predictions_with_tied_values(self):
        X, y = self._data()
        exact = DecisionTreeRegressor(splitter="exact", max_depth=6).fit(X, y)
        hist = DecisionTreeRegressor(splitter="hist", max_depth=6).fit(X, y)
        assert np.array_equal(exact.predict(X), hist.predict(X))
        assert exact.n_leaves() == hist.n_leaves()

    def test_constant_column_never_split(self):
        X, y = self._data()
        X[:, 3] = 7.0
        for splitter in ("exact", "hist"):
            tree = DecisionTreeRegressor(splitter=splitter, max_depth=6).fit(X, y)
            interior = tree.flat_.feature >= 0
            assert interior.any()
            assert not np.any(tree.flat_.feature[interior] == 3)

    def test_all_constant_features_give_single_leaf(self):
        X = np.full((30, 3), 2.0)
        y = np.arange(30, dtype=float)
        for splitter in ("exact", "hist"):
            tree = DecisionTreeRegressor(
                splitter=splitter, max_depth=5, min_samples_split=2
            ).fit(X, y)
            assert tree.n_leaves() == 1

    def test_root_split_gains_match_with_weights(self):
        X, y = self._data(seed=11)
        rng = np.random.default_rng(4)
        weights = rng.uniform(0.1, 3.0, size=len(y))
        exact = DecisionTreeRegressor(splitter="exact", max_depth=1, min_samples_leaf=1)
        hist = DecisionTreeRegressor(splitter="hist", max_depth=1, min_samples_leaf=1)
        exact.fit(X, y, sample_weight=weights)
        hist.fit(X, y, sample_weight=weights)
        # Node 0 of the pre-order arrays is the root.
        exact_feature, exact_threshold = exact.flat_.feature[0], exact.flat_.threshold[0]
        hist_feature, hist_threshold = hist.flat_.feature[0], hist.flat_.threshold[0]
        assert exact_feature >= 0 and hist_feature >= 0
        gain_exact = _variance_split_gain(X, y, weights, exact_feature, exact_threshold)
        gain_hist = _variance_split_gain(X, y, weights, hist_feature, hist_threshold)
        assert gain_hist == pytest.approx(gain_exact, rel=1e-9)
        # The chosen partitions are identical, not just equally good.
        assert exact_feature == hist_feature
        assert np.array_equal(
            X[:, exact_feature] <= exact_threshold,
            X[:, hist_feature] <= hist_threshold,
        )

    def test_weighted_fit_predictions_match(self):
        X, y = self._data(seed=5)
        rng = np.random.default_rng(6)
        weights = rng.uniform(0.1, 4.0, size=len(y))
        exact = DecisionTreeRegressor(splitter="exact", max_depth=5).fit(
            X, y, sample_weight=weights
        )
        hist = DecisionTreeRegressor(splitter="hist", max_depth=5).fit(
            X, y, sample_weight=weights
        )
        assert np.allclose(exact.predict(X), hist.predict(X))

    def test_newton_trees_identical_on_binned_data(self):
        X, y = self._data(seed=7)
        rng = np.random.default_rng(8)
        grad = y - rng.normal(size=len(y))
        hess = rng.uniform(0.5, 2.0, size=len(y))
        exact = NewtonTreeRegressor(splitter="exact", max_depth=5)
        hist = NewtonTreeRegressor(splitter="hist", max_depth=5)
        exact.fit_gradients(X, grad, hess)
        hist.fit_gradients(X, grad, hess)
        assert np.array_equal(exact.predict(X), hist.predict(X))

    def test_gbm_metrics_close_on_continuous_data(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(800, 6))
        y = 2.0 * X[:, 0] - X[:, 1] + np.sin(X[:, 2]) + 0.1 * rng.normal(size=800)
        exact = GradientBoostingRegressor(n_estimators=30, splitter="exact").fit(
            X[:600], y[:600]
        )
        hist = GradientBoostingRegressor(n_estimators=30, splitter="hist").fit(
            X[:600], y[:600]
        )
        mse_exact = np.mean((exact.predict(X[600:]) - y[600:]) ** 2)
        mse_hist = np.mean((hist.predict(X[600:]) - y[600:]) ** 2)
        assert mse_hist <= mse_exact * 1.25
        assert np.corrcoef(exact.predict(X[600:]), hist.predict(X[600:]))[0, 1] > 0.98

    def test_unknown_splitter_rejected(self):
        X = np.zeros((10, 2))
        y = np.arange(10, dtype=float)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(splitter="bogus").fit(X, y)
        with pytest.raises(ValueError):
            NewtonTreeRegressor(splitter="bogus").fit(X, y)

    def test_small_bin_budget_still_learns(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(600, 4))
        y = 3.0 * X[:, 0] + X[:, 1]
        tree = DecisionTreeRegressor(splitter="hist", max_bins=8, max_depth=6).fit(X, y)
        assert np.corrcoef(tree.predict(X), y)[0, 1] > 0.9


class TestFlatPredict:
    def test_flat_matches_recursive_on_randomized_trees(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            X = rng.normal(size=(300, 4))
            y = rng.normal(size=300) + X[:, seed % 4]
            splitter = "hist" if seed % 2 == 0 else "exact"
            tree = DecisionTreeRegressor(
                splitter=splitter,
                max_depth=int(rng.integers(1, 9)),
                min_samples_leaf=int(rng.integers(1, 6)),
                seed=seed,
            ).fit(X, y)
            fresh = rng.normal(size=(200, 4))
            assert np.array_equal(tree.predict(X), tree.predict_recursive(X))
            assert np.array_equal(tree.predict(fresh), tree.predict_recursive(fresh))

    def test_flat_tree_arrays_consistent(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 3))
        y = X[:, 0] * 2.0 + rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        flat = tree.flat_
        leaves = flat.feature < 0
        assert leaves.sum() == tree.n_leaves()
        interior = ~leaves
        # Children of interior nodes point strictly forward (preorder layout).
        assert np.all(flat.left[interior] > np.nonzero(interior)[0])
        assert np.all(flat.right[interior] > np.nonzero(interior)[0])

    def test_training_predictions_match_predict(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(250, 4))
        y = X[:, 1] - X[:, 2] + rng.normal(size=250)
        for splitter in ("hist", "exact"):
            tree = DecisionTreeRegressor(splitter=splitter, max_depth=5).fit(X, y)
            assert np.array_equal(tree.training_predictions_, tree.predict(X))
            newton = NewtonTreeRegressor(splitter=splitter, max_depth=5).fit(X, y)
            assert np.array_equal(newton.training_predictions_, newton.predict(X))

    def test_single_leaf_tree_predicts_constant(self):
        X = np.zeros((10, 2))
        y = np.full(10, 3.5)
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(np.random.default_rng(0).normal(size=(5, 2))), 3.5)

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    def test_single_leaf_flat_matches_recursive(self, splitter):
        """A one-node FlatTree routes nothing and still mirrors the reference."""
        X = np.arange(12, dtype=float).reshape(-1, 2)
        y = np.full(6, -2.25)
        tree = DecisionTreeRegressor(splitter=splitter, max_depth=4).fit(X, y)
        assert tree.flat_.n_nodes == 1
        fresh = np.random.default_rng(1).normal(size=(7, 2))
        assert np.array_equal(tree.predict(fresh), tree.predict_recursive(fresh))

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    def test_empty_predict_matrix(self, splitter, regression_data):
        """Predicting zero rows returns an empty vector, bit-identical paths."""
        X, y = regression_data
        tree = DecisionTreeRegressor(splitter=splitter, max_depth=4).fit(X, y)
        empty = np.empty((0, X.shape[1]))
        flat = tree.predict(empty)
        recursive = tree.predict_recursive(empty)
        assert flat.shape == recursive.shape == (0,)
        assert np.array_equal(flat, recursive)

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    def test_all_constant_feature_column_never_split(self, splitter):
        """A constant column offers no cut; both predict paths still agree."""
        rng = np.random.default_rng(21)
        X = np.column_stack([np.full(120, 7.5), rng.normal(size=120)])
        y = 3.0 * X[:, 1] + rng.normal(size=120) * 0.1
        tree = DecisionTreeRegressor(splitter=splitter, max_depth=5).fit(X, y)
        assert not np.any(tree.flat_.feature == 0), "constant column must never split"
        assert np.array_equal(tree.predict(X), tree.predict_recursive(X))

    @pytest.mark.parametrize("splitter", ["hist", "exact"])
    @pytest.mark.parametrize("max_depth", [1, 2])
    def test_depth_limit_boundary(self, splitter, max_depth, regression_data):
        """At the depth cap the deepest interior node still flattens correctly."""
        X, y = regression_data
        tree = DecisionTreeRegressor(
            splitter=splitter, max_depth=max_depth, min_samples_leaf=1
        ).fit(X, y)
        assert tree.depth() == max_depth
        assert tree.flat_.n_nodes <= 2 ** (max_depth + 1) - 1
        fresh = np.random.default_rng(22).normal(size=(150, X.shape[1]))
        assert np.array_equal(tree.predict(X), tree.predict_recursive(X))
        assert np.array_equal(tree.predict(fresh), tree.predict_recursive(fresh))
def _per_tree_sum(model, X, base):
    """The reference: each tree's recursive predict, added in tree order."""
    total = np.full(len(X), base)
    for tree in model.trees_:
        total += model.learning_rate * tree.predict_recursive(X)
    return total


def _per_tree_stages(model, X, base):
    total = np.full(len(X), base)
    stages = []
    for tree in model.trees_:
        total = total + model.learning_rate * tree.predict_recursive(X)
        stages.append(total)
    return np.array(stages).reshape(len(model.trees_), len(X))


class TestPackedForest:
    """Packed predict equals the per-tree recursive sum, bit for bit."""

    @pytest.mark.parametrize(
        "params",
        [
            {"colsample": 0.6},
            {"subsample": 0.7, "seed": 3},
            {"early_stopping_rounds": 2, "n_estimators": 200, "learning_rate": 0.4},
            {"objective": HuberObjective(delta=0.5), "max_depth": 3},
        ],
    )
    def test_gbm_matches_per_tree_sum(self, params, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(**{"n_estimators": 25, **params}).fit(X, y)
        fresh = np.random.default_rng(31).normal(size=(300, X.shape[1]))
        for rows in (X, fresh):
            assert np.array_equal(model.predict(rows), _per_tree_sum(model, rows, model.base_score_))
            assert np.array_equal(
                model.staged_predict(rows), _per_tree_stages(model, rows, model.base_score_)
            )

    def test_lambdamart_matches_per_tree_sum(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(240, 5))
        relevance = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5).astype(int)
        ranker = LambdaMARTRanker(n_estimators=15).fit(X, relevance, np.arange(240) // 40)
        assert np.array_equal(ranker.predict(X), _per_tree_sum(ranker, X, 0.0))

    def test_restored_models_match_per_tree_sum(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=20, colsample=0.8).fit(X, y)
        restored = GradientBoostingRegressor.from_state(model.to_state())
        assert np.array_equal(restored.predict(X), _per_tree_sum(restored, X, restored.base_score_))
        assert np.array_equal(restored.predict(X), model.predict(X))
        ranker = LambdaMARTRanker(n_estimators=8).fit(X[:100], (y[:100] > 0).astype(int))
        back = LambdaMARTRanker.from_state(ranker.to_state())
        assert np.array_equal(back.predict(X), _per_tree_sum(back, X, 0.0))
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        again = DecisionTreeRegressor.from_state(tree.to_state())
        assert np.array_equal(again.predict(X), tree.predict_recursive(X))

    def test_packed_arrays_are_not_in_the_state(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        assert isinstance(model.forest_, PackedForest)
        assert set(model.to_state()["fitted"]) == {"base_score", "trees", "train_losses"}

    def test_zero_rows(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        empty = np.empty((0, X.shape[1]))
        assert model.predict(empty).shape == (0,)
        assert model.staged_predict(empty).shape == (5, 0)

    def test_zero_trees(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=0).fit(X, y)
        assert model.forest_.n_trees == 0
        assert np.array_equal(model.predict(X), np.full(len(X), model.base_score_))
        assert model.staged_predict(X).shape == (0, len(X))

    def test_single_leaf_trees(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=6, max_depth=0).fit(X, y)
        assert model.forest_.depth == 0
        assert np.array_equal(model.predict(X), _per_tree_sum(model, X, model.base_score_))

    def test_rows_with_nan(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=12, max_depth=4).fit(X, y)
        holes = np.random.default_rng(33).normal(size=(200, X.shape[1]))
        holes[::3, 0] = np.nan
        holes[1::4, 1:3] = np.nan
        assert np.array_equal(model.predict(holes), _per_tree_sum(model, holes, model.base_score_))
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert np.array_equal(tree.predict(holes), tree.predict_recursive(holes))

    def test_more_rows_than_one_chunk(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=10, colsample=0.7).fit(X, y)
        many = np.random.default_rng(34).normal(size=(2 * ROUTE_CHUNK_ROWS + 7, X.shape[1]))
        assert np.array_equal(model.predict(many), _per_tree_sum(model, many, model.base_score_))
        assert np.array_equal(
            model.staged_predict(many), _per_tree_stages(model, many, model.base_score_)
        )

    def test_too_few_columns_rejected(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        with pytest.raises(ValueError, match="columns"):
            model.predict(X[:, :1])


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=10, max_size=40
    )
)
def test_tree_predictions_within_target_range(pairs):
    """A regression tree never extrapolates beyond the observed target range."""
    X = np.array([[a] for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    tree = DecisionTreeRegressor(max_depth=4, min_samples_leaf=1, min_samples_split=2).fit(X, y)
    predictions = tree.predict(X)
    assert predictions.min() >= y.min() - 1e-6
    assert predictions.max() <= y.max() + 1e-6

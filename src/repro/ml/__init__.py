"""From-scratch ML substrate (no external ML framework required)."""

from repro.ml.base import Estimator, as_1d_array, as_2d_array
from repro.ml.preprocessing import (
    MinMaxScaler,
    StandardScaler,
    TargetScaler,
    group_kfold,
    leave_one_group_out,
    train_test_split,
)
from repro.ml.tree import (
    BinnedMatrix,
    DecisionTreeRegressor,
    FlatTree,
    NewtonTreeRegressor,
    bin_feature_matrix,
    resolve_max_bins,
)
from repro.ml.gbm import (
    GradientBoostingRegressor,
    HuberObjective,
    SquaredErrorObjective,
)
from repro.ml.losses import (
    GroupedMaxSquaredError,
    group_argmax,
    group_max,
    grouped_max_loss_and_gradient,
    grouped_softmax_loss_and_gradient,
)
from repro.ml.mlp import MLPRegressor
from repro.ml.transformer import TransformerPathRegressor, pad_sequences
from repro.ml.lambdamart import LambdaMARTRanker, dcg_at_k, ndcg
from repro.ml.gnn import GNNRegressor, GraphData
from repro.ml.serialize import ESTIMATOR_MODULES, estimator_from_state, estimator_to_state

__all__ = [
    "Estimator",
    "as_1d_array",
    "as_2d_array",
    "MinMaxScaler",
    "StandardScaler",
    "TargetScaler",
    "group_kfold",
    "leave_one_group_out",
    "train_test_split",
    "BinnedMatrix",
    "DecisionTreeRegressor",
    "FlatTree",
    "NewtonTreeRegressor",
    "bin_feature_matrix",
    "resolve_max_bins",
    "GradientBoostingRegressor",
    "HuberObjective",
    "SquaredErrorObjective",
    "GroupedMaxSquaredError",
    "group_argmax",
    "group_max",
    "grouped_max_loss_and_gradient",
    "grouped_softmax_loss_and_gradient",
    "MLPRegressor",
    "TransformerPathRegressor",
    "pad_sequences",
    "LambdaMARTRanker",
    "dcg_at_k",
    "ndcg",
    "GNNRegressor",
    "GraphData",
    "ESTIMATOR_MODULES",
    "estimator_from_state",
    "estimator_to_state",
]

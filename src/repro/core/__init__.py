"""RTL-Timer core: the paper's primary contribution.

The package re-exports the whole modelling surface (see ``docs/api.md``):

* dataset construction — :func:`build_dataset`, :func:`build_design_record`,
  :class:`DesignRecord`, path features + sampling,
* the model stack — :class:`BitwiseArrivalModel` (per-variant path models +
  representation ensemble), :class:`SignalwiseModel` (signal max-arrival
  regression + LambdaMART ranking), :class:`OverallTimingModel` (WNS/TNS),
  all tied together by :class:`RTLTimer`,
* applications — slack annotation (:func:`annotate_design`),
  prediction-driven synthesis options and the incremental optimization
  sweep (:func:`run_optimization_sweep`),
* metrics mirroring the paper's tables (:func:`regression_metrics`,
  :func:`ranking_coverage`, ...).

Fitted models persist through ``RTLTimer.save`` / ``RTLTimer.load`` and the
:mod:`repro.serve` registry; reloaded predictions are bit-identical.
"""

from repro.core.metrics import (
    DEFAULT_GROUP_FRACTIONS,
    criticality_groups,
    group_boundaries,
    mape,
    pearson_r,
    r_squared,
    ranking_coverage,
    regression_metrics,
)
from repro.core.dataset import (
    DatasetConfig,
    DesignRecord,
    build_dataset,
    build_dataset_serial,
    build_design_record,
    dataset_summary,
)
from repro.core.sampling import (
    EndpointSamples,
    PathSample,
    SamplingConfig,
    sample_count,
    sample_design_paths,
    sample_endpoint_paths,
)
from repro.core.features import (
    DESIGN_FEATURE_NAMES,
    PATH_FEATURE_NAMES,
    PathDataset,
    bog_graph_data,
    combine_path_datasets,
    design_feature_vector,
    extract_path_dataset,
)
from repro.core.feature_cache import (
    PathFeatureCache,
    path_feature_cache,
    path_dataset_key,
    reset_feature_cache,
)
from repro.core.bitwise import BitwiseArrivalModel, BitwiseConfig
from repro.core.signalwise import SignalwiseConfig, SignalwiseModel
from repro.core.overall import OverallConfig, OverallTimingModel
from repro.core.baselines import GNNBaselineConfig, GNNBitwiseBaseline
from repro.core.annotate import annotate_design, ranking_groups
from repro.core.optimize import (
    OptimizationOutcome,
    generate_candidates,
    options_from_ranking,
    ranking_from_labels,
    run_optimization_experiment,
    run_optimization_sweep,
    summarize_outcomes,
)
from repro.core.pipeline import BatchPrediction, RTLTimer, RTLTimerConfig, RTLTimerPrediction

__all__ = [
    "DEFAULT_GROUP_FRACTIONS",
    "criticality_groups",
    "group_boundaries",
    "mape",
    "pearson_r",
    "r_squared",
    "ranking_coverage",
    "regression_metrics",
    "DatasetConfig",
    "DesignRecord",
    "build_dataset",
    "build_dataset_serial",
    "build_design_record",
    "dataset_summary",
    "EndpointSamples",
    "PathSample",
    "SamplingConfig",
    "sample_count",
    "sample_design_paths",
    "sample_endpoint_paths",
    "DESIGN_FEATURE_NAMES",
    "PATH_FEATURE_NAMES",
    "PathDataset",
    "bog_graph_data",
    "combine_path_datasets",
    "design_feature_vector",
    "extract_path_dataset",
    "PathFeatureCache",
    "path_feature_cache",
    "path_dataset_key",
    "reset_feature_cache",
    "BitwiseArrivalModel",
    "BitwiseConfig",
    "SignalwiseConfig",
    "SignalwiseModel",
    "OverallConfig",
    "OverallTimingModel",
    "GNNBaselineConfig",
    "GNNBitwiseBaseline",
    "annotate_design",
    "ranking_groups",
    "OptimizationOutcome",
    "generate_candidates",
    "options_from_ranking",
    "ranking_from_labels",
    "run_optimization_experiment",
    "run_optimization_sweep",
    "summarize_outcomes",
    "BatchPrediction",
    "RTLTimer",
    "RTLTimerConfig",
    "RTLTimerPrediction",
]

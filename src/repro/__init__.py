"""RTL-Timer reproduction: fine-grained RTL timing evaluation for early optimization.

A from-scratch, pure-Python reproduction of "Annotating Slack Directly on
Your Verilog: Fine-Grained RTL Timing Evaluation for Early Optimization"
(DAC 2024), including every substrate the paper relies on: a Verilog front
end, bit-level Boolean operator graph representations, a liberty-like cell
library, logic synthesis, static timing analysis, placement, and the ML
models (boosted trees, MLP, transformer, LambdaMART, GNN) implemented on
numpy.

Public entry points (see ``docs/api.md`` for the full reference):

* :class:`repro.core.RTLTimer` -- the fine-grained timing estimator, with
  ``save`` / ``load`` persistence and ``what_if`` projections,
* :func:`repro.core.build_dataset` -- benchmark suite + label generation
  (parallel + cached via :mod:`repro.runtime`),
* :mod:`repro.serve` -- the serving layer: versioned model registry
  (``save_model`` / ``load_model``), the batching
  :class:`~repro.serve.TimingService` and the JSON-over-HTTP server,
* :mod:`repro.cli` -- the unified ``python -m repro`` command line
  (``train`` / ``predict`` / ``whatif`` / ``serve`` / ``dataset`` /
  ``fuzz``),
* :func:`repro.core.run_optimization_experiment` -- prediction-driven
  ``group_path`` / ``retime`` synthesis optimization,
* :func:`repro.core.run_optimization_sweep` -- its multi-candidate
  extension, scored by :mod:`repro.incremental` what-if re-timing,
* :mod:`repro.incremental` -- what-if STA under patch plans:
  :class:`~repro.incremental.PatchPlan`,
  :class:`~repro.incremental.IncrementalSTA` and the what-if projection,
* :mod:`repro.runtime` -- the execution engine: process-pool fan-out,
  content-addressed artifact caching, structured runtime reports,
* :mod:`repro.fuzz` -- cross-stack differential fuzzing,
* :mod:`repro.hdl`, :mod:`repro.bog`, :mod:`repro.synth`, :mod:`repro.sta`,
  :mod:`repro.physical`, :mod:`repro.ml` -- the substrates.
"""

from repro.core.pipeline import BatchPrediction, RTLTimer, RTLTimerConfig, RTLTimerPrediction
from repro.core.dataset import DatasetConfig, DesignRecord, build_dataset, build_design_record

__version__ = "0.1.0"

__all__ = [
    "BatchPrediction",
    "RTLTimer",
    "RTLTimerConfig",
    "RTLTimerPrediction",
    "DatasetConfig",
    "DesignRecord",
    "build_dataset",
    "build_design_record",
    "__version__",
]

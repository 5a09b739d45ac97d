"""Online model lifecycle: retrain → eval gate → canary promotion → hot swap.

The registry (:mod:`repro.serve.registry`) stores versioned bundles and the
worker pool (:mod:`repro.serve.supervisor`) can reload them; this package
closes the loop between the two:

* :mod:`repro.lifecycle.retrain` — ``python -m repro retrain``: ingest new
  designs, fit a candidate, register it, and promote it only after the eval
  gate passes;
* :mod:`repro.lifecycle.evaluate` — the gate itself: held-out Table-5-style
  signal-arrival R plus a prediction-latency budget, emitted as a JSON eval
  report whose digest is recorded on the promotion;
* :mod:`repro.lifecycle.watch` — a serving process following
  ``name@promoted`` hot-swaps bundles with zero dropped requests.
"""

from repro.lifecycle.evaluate import (
    EVAL_REPORT_SCHEMA,
    EvalThresholds,
    build_eval_report,
    compare_evals,
    design_signal_r,
    eval_digest,
    evaluate_timer,
    write_eval_report,
)
from repro.lifecycle.retrain import (
    EVAL_STAGE,
    INGEST_STAGE,
    RETRAIN_STAGE,
    RetrainConfig,
    run_retrain,
    training_config,
)
from repro.lifecycle.watch import PromotionWatcher

__all__ = [
    "EVAL_REPORT_SCHEMA",
    "EVAL_STAGE",
    "INGEST_STAGE",
    "RETRAIN_STAGE",
    "EvalThresholds",
    "PromotionWatcher",
    "RetrainConfig",
    "build_eval_report",
    "compare_evals",
    "design_signal_r",
    "eval_digest",
    "evaluate_timer",
    "run_retrain",
    "training_config",
    "write_eval_report",
]

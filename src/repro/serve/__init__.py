"""Serving layer: model registry, batched inference service, HTTP server.

This package is the repo's train-once/serve-many boundary:

* :mod:`repro.serve.registry` — versioned, content-addressed model bundles
  (``save_model`` / ``load_model`` / :class:`ModelRegistry`) layered on the
  :mod:`repro.runtime` artifact cache; reloaded models predict
  bit-identically to the fitted originals,
* :mod:`repro.serve.service` — :class:`TimingService`, a load-once,
  thread-safe facade over :class:`~repro.core.pipeline.RTLTimer` that
  batches predict calls queued behind a running pass into single
  ``predict_batch`` passes (one batcher per worker under
  :class:`~repro.serve.service.PooledTimingService`) and records
  ``serve.*`` runtime stages,
* :mod:`repro.serve.http` — a stdlib JSON-over-HTTP server exposing
  ``/predict``, ``/whatif``, ``/health`` and ``/metrics``,
* :mod:`repro.serve.resilience` — admission control, deadlines and the
  serving error types,
* :mod:`repro.serve.supervisor` — the supervised pre-forked worker pool
  behind :class:`~repro.serve.service.PooledTimingService`,
* :mod:`repro.serve.chaos` — the seed-replayable fault-injection campaign
  behind ``python -m repro chaos``.

The ``python -m repro`` CLI (:mod:`repro.cli`) wires these together:
``train`` saves into the registry, ``serve`` loads from it and binds the
HTTP server, and ``retrain`` (:mod:`repro.lifecycle`) moves the
``name@promoted`` deployment pointer that a refreshing server follows.
"""

from repro.serve.registry import (
    MODEL_BUNDLE_SCHEMA,
    PROMOTED_ALIAS,
    ModelRegistry,
    RegistryError,
    default_model_dir,
    load_model,
    save_model,
)
from repro.serve.resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    RejectedError,
    WorkerUnavailable,
)
from repro.serve.service import PooledTimingService, ServeConfig, TimingService
from repro.serve.supervisor import PoolConfig, WorkerPool
from repro.serve.http import TimingHTTPServer, prediction_to_json, start_server

__all__ = [
    "MODEL_BUNDLE_SCHEMA",
    "PROMOTED_ALIAS",
    "ModelRegistry",
    "RegistryError",
    "default_model_dir",
    "load_model",
    "save_model",
    "AdmissionController",
    "Deadline",
    "DeadlineExceeded",
    "RejectedError",
    "WorkerUnavailable",
    "PooledTimingService",
    "ServeConfig",
    "TimingService",
    "PoolConfig",
    "WorkerPool",
    "TimingHTTPServer",
    "prediction_to_json",
    "start_server",
]

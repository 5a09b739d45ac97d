"""Execution engine: parallel builds, artifact caching, runtime reporting.

The three submodules compose into one engine for the whole stack:

* :mod:`repro.runtime.report` — structured per-stage wall-time / counter
  instrumentation (``RuntimeReport``) and the ``BENCH_runtime.json`` emitter
  consumed by the CI benchmark-trend job,
* :mod:`repro.runtime.cache` — a content-addressed on-disk artifact cache
  that persists elaborated ``DesignRecord`` objects between sessions and CI
  runs,
* :mod:`repro.runtime.parallel` — ``ProcessPoolExecutor`` fan-out for
  dataset construction with deterministic ordering and graceful serial
  fallback (``REPRO_JOBS=1``).

Submodules are imported lazily (PEP 562): low-level modules such as
:mod:`repro.hdl.generate` import ``repro.runtime.report`` for
instrumentation hooks, while :mod:`repro.runtime.parallel` imports
:mod:`repro.core.dataset` for the worker function — eager package imports
would tie those into a cycle.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    # report
    "RuntimeReport": "repro.runtime.report",
    "activate": "repro.runtime.report",
    "active_report": "repro.runtime.report",
    "stage": "repro.runtime.report",
    "incr": "repro.runtime.report",
    "write_bench_report": "repro.runtime.report",
    "BENCH_ENV_VAR": "repro.runtime.report",
    # cache
    "ArtifactCache": "repro.runtime.cache",
    "CacheStats": "repro.runtime.cache",
    "cache_enabled": "repro.runtime.cache",
    "code_fingerprint": "repro.runtime.cache",
    "default_cache_dir": "repro.runtime.cache",
    "record_fingerprint": "repro.runtime.cache",
    "record_key": "repro.runtime.cache",
    "CACHE_DIR_ENV_VAR": "repro.runtime.cache",
    "CACHE_ENABLE_ENV_VAR": "repro.runtime.cache",
    "CACHE_MAX_MB_ENV_VAR": "repro.runtime.cache",
    # parallel
    "build_dataset_parallel": "repro.runtime.parallel",
    "SourceItem": "repro.runtime.parallel",
    "resolve_jobs": "repro.runtime.parallel",
    "JOBS_ENV_VAR": "repro.runtime.parallel",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

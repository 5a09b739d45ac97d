"""Fold-aware path-feature cache.

Cross-validating the RTL-Timer stack re-extracts the *same* path features
over and over: every fold trains on mostly the same designs, each of the four
BOG variants extracts per record at fit time, and prediction extracts again
for the ensemble and signal-wise stages.  Extraction is deterministic — the
path sampler is seeded by :class:`~repro.core.sampling.SamplingConfig` and
everything else is a pure function of the record — so the result can be
cached under a content key:

``sha256(feature code ⊕ record fingerprint ⊕ variant ⊕ sampling ⊕ endpoints)``

Two layers back the cache:

* a bounded in-process LRU dictionary (hits are free across CV folds within
  one session),
* the on-disk :class:`~repro.runtime.cache.ArtifactCache` under a
  ``features/`` subdirectory of the artifact cache (hits survive across
  sessions and CI runs, and inherit the ``REPRO_CACHE*`` knobs).

Cache hits are recorded as the ``features.cache_hit`` stage and the
``feature_cache_hits`` / ``feature_cache_misses`` counters, so
``BENCH_runtime.json`` shows the collapse of per-fold re-extraction.

Environment knobs:

* ``REPRO_FEATURE_CACHE=0`` — disable both layers (every call re-extracts),
* ``REPRO_FEATURE_CACHE_DISK=0`` — keep the cache in-memory only.

The on-disk layer's size budget is a fixed 1/8 share of
``REPRO_CACHE_MAX_MB`` (256 MiB by default); the feature store prunes
itself and is invisible to the record cache's own budget.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from repro import settings
from repro.runtime import report as report_mod
from repro.runtime.cache import (
    CACHE_MAX_MB_ENV_VAR,
    ArtifactCache,
    code_fingerprint,
    code_paths,
    default_cache_dir,
    record_fingerprint,
)

#: Set to ``0`` to disable the path-feature cache entirely.
FEATURE_CACHE_ENV_VAR = "REPRO_FEATURE_CACHE"

#: Set to ``0`` to skip the on-disk layer (in-memory only).
FEATURE_CACHE_DISK_ENV_VAR = "REPRO_FEATURE_CACHE_DISK"

#: Share of ``REPRO_CACHE_MAX_MB`` given to the on-disk layer; feature
#: entries are small and cheap to rebuild relative to DesignRecords, so the
#: budget is much tighter than the record cache's.
DISK_BUDGET_SHARE = 8

#: Disk stores between prune passes (a prune walks the cache directory).
_PRUNE_EVERY = 64

#: Default in-memory entry budget (a PathDataset is a few hundred KB).
DEFAULT_MEM_ENTRIES = 256

#: Stage recorded (with its call count) for every cache hit.
CACHE_HIT_STAGE = "features.cache_hit"

#: Feature-extraction source files folded into the cache key on top of the
#: build-relevant scope already covered by ``code_fingerprint``.
_FEATURE_CODE_FILES = ("features.py", "sampling.py")


def feature_cache_enabled() -> bool:
    """Whether the path-feature cache is enabled (``REPRO_FEATURE_CACHE=0`` disables)."""
    return settings.get(FEATURE_CACHE_ENV_VAR)


def feature_disk_enabled() -> bool:
    """Whether the on-disk layer is enabled (``REPRO_FEATURE_CACHE_DISK=0`` disables)."""
    return settings.get(FEATURE_CACHE_DISK_ENV_VAR)


def _feature_code_files() -> List[Path]:
    root = Path(__file__).resolve().parent  # src/repro/core
    return [root / entry for entry in _FEATURE_CODE_FILES]


def feature_code_paths() -> List[Path]:
    """Every source file whose bytes :func:`feature_code_fingerprint` covers."""
    return code_paths() + _feature_code_files()


@lru_cache(maxsize=1)
def feature_code_fingerprint() -> str:
    """Digest of everything that can change extracted features.

    The build-scope fingerprint already covers the HDL/BOG/STA/synthesis
    code that shapes a record; the feature extractor and path sampler are
    layered on top so edits to them invalidate stale feature entries without
    invalidating the (much more expensive) record entries.
    """
    digest = hashlib.sha256()
    digest.update(code_fingerprint().encode())
    for entry, path in zip(_FEATURE_CODE_FILES, _feature_code_files()):
        digest.update(entry.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def record_fingerprint_cached(record: Any) -> str:
    """Content identity of a record, memoized on the record instance.

    Records that came through the runtime engine carry their content-addressed
    build key (``_content_key``: spec ⊕ config ⊕ build code), which identifies
    the content without touching the record bytes.  Records built directly
    (e.g. from raw Verilog in tests) fall back to the pickled-bytes
    fingerprint — that pickles the whole record, so the result is computed
    once per record object and stashed in the instance ``__dict__``
    (dataclass machinery — ``fields``/``replace``/``repr`` — never sees the
    extra key).  Records are treated as immutable once built.
    """
    cached = record.__dict__.get("_feature_fingerprint")
    if cached is None:
        key = record.__dict__.get("_content_key")
        cached = f"key:{key}" if key is not None else f"fp:{record_fingerprint(record)}"
        record.__dict__["_feature_fingerprint"] = cached
    return cached


def path_dataset_key(
    record: Any,
    variant: str,
    sampling: Any,
    endpoint_names: Optional[Sequence[str]],
) -> str:
    """Content-address of one ``extract_path_dataset`` call.

    ``endpoint_names`` participates because the shared sampling RNG makes the
    extracted paths a function of the exact endpoint subset, not just of the
    per-endpoint inputs.
    """
    if endpoint_names is None:
        endpoints = "*"
    else:
        endpoints = ",".join(str(name) for name in endpoint_names)
    parts = (
        "path-dataset/v1",
        f"code={feature_code_fingerprint()}",
        f"record={record_fingerprint_cached(record)}",
        f"variant={variant}",
        f"sampling={sampling!r}",
        f"endpoints={endpoints}",
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class PathFeatureCache:
    """Two-layer (in-memory LRU + on-disk) cache for extracted path datasets."""

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        max_entries: int = DEFAULT_MEM_ENTRIES,
        disk: Optional[bool] = None,
    ):
        if directory is None:
            directory = default_cache_dir() / "features"
        self.max_entries = max(int(max_entries), 1)
        self.disk = ArtifactCache(directory, counter_prefix="feature_disk")
        if disk is not None:
            self.disk.enabled = bool(disk)
        elif not feature_disk_enabled():
            self.disk.enabled = False
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._stores_since_prune = 0

    # -- stats ---------------------------------------------------------------

    @property
    def n_memory_entries(self) -> int:
        return len(self._memory)

    # -- lookup --------------------------------------------------------------

    def get_or_extract(self, key: str, extractor: Callable[[], Any]) -> Any:
        """Return the cached dataset under ``key``, extracting on a full miss."""
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            self._record_hit()
            return hit
        if self.disk.enabled:
            value = self.disk.get(key)
            if value is not None:
                self._remember(key, value)
                self._record_hit()
                return value
        report_mod.incr("feature_cache_misses")
        value = extractor()
        self._remember(key, value)
        if self.disk.enabled and self.disk.put(key, value):
            self._stores_since_prune += 1
            if self._stores_since_prune >= _PRUNE_EVERY:
                self._stores_since_prune = 0
                self.disk.prune(self._disk_budget_bytes())
        return value

    def clear(self) -> None:
        """Drop the in-memory layer (the disk layer is left untouched)."""
        self._memory.clear()

    # -- internals -----------------------------------------------------------

    def _disk_budget_bytes(self) -> int:
        budget = settings.get(CACHE_MAX_MB_ENV_VAR) * 1024 * 1024 // DISK_BUDGET_SHARE
        return max(budget, 1024 * 1024)

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _record_hit(self) -> None:
        report_mod.incr("feature_cache_hits")
        report = report_mod.active_report()
        if report is not None:
            report.add_stage(CACHE_HIT_STAGE, 0.0)


# ---------------------------------------------------------------------------
# Process-wide cache instance
# ---------------------------------------------------------------------------

_ACTIVE_CACHE: Optional[PathFeatureCache] = None


def path_feature_cache() -> Optional[PathFeatureCache]:
    """The process-wide cache, or ``None`` when disabled via the environment."""
    global _ACTIVE_CACHE
    if not feature_cache_enabled():
        return None
    if _ACTIVE_CACHE is None:
        _ACTIVE_CACHE = PathFeatureCache()
    return _ACTIVE_CACHE


def reset_feature_cache() -> None:
    """Drop the process-wide cache so the next use re-reads the environment."""
    global _ACTIVE_CACHE
    _ACTIVE_CACHE = None


def cached_extract_path_dataset(
    record: Any,
    variant: str,
    sampling: Any,
    endpoint_names: Optional[Sequence[str]],
    extractor: Callable[[], Any],
) -> Any:
    """Cache-or-extract wrapper used by ``extract_path_dataset``.

    ``extractor`` runs exactly when the cache is disabled or the key misses
    both layers.
    """
    cache = path_feature_cache()
    if cache is None:
        return extractor()
    key = path_dataset_key(record, variant, sampling, endpoint_names)
    return cache.get_or_extract(key, extractor)

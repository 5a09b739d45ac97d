"""Fold-aware path-feature cache.

Cross-validating the RTL-Timer stack re-extracts the *same* path features
over and over: every fold trains on mostly the same designs, each of the four
BOG variants extracts per record at fit time and again to predict, and the
signal-wise stage reads the SOG dataset the bit-wise model extracted.
Extraction is deterministic — the path sampler is seeded by
:class:`~repro.core.sampling.SamplingConfig` and everything else is a pure
function of the record — so the result can be cached under a content key:

``sha256(feature code ⊕ record key ⊕ variant ⊕ sampling ⊕ endpoints)``

The record key is the build key :func:`~repro.core.dataset.build_design_record`
gives every record (``DesignRecord.key``: spec or source ⊕ config ⊕ build
code), the record's only identity.  A record assembled by hand carries no key
and is extracted without the cache.

Two layers back the cache:

* a bounded in-process LRU dictionary (hits are free across CV folds within
  one session),
* the on-disk :class:`~repro.runtime.cache.ArtifactCache` under a
  ``features/`` subdirectory of the artifact cache (hits survive across
  sessions and CI runs; ``REPRO_CACHE=0`` turns it off).  Its size budget is
  a fixed 1/8 share of ``REPRO_CACHE_MAX_MB`` (256 MiB by default), invisible
  to the record cache's own budget.

Cache hits are recorded as the ``features.cache_hit`` stage and the
``feature_cache_hits`` / ``feature_cache_misses`` counters, so
``BENCH_runtime.json`` shows the collapse of per-fold re-extraction.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from repro.runtime import report as report_mod
from repro.runtime.cache import ArtifactCache, code_fingerprint, code_paths, default_cache_dir

#: Share of ``REPRO_CACHE_MAX_MB`` given to the on-disk layer; feature
#: entries are small and cheap to rebuild relative to DesignRecords, so the
#: budget is much tighter than the record cache's.
DISK_BUDGET_SHARE = 8

#: Default in-memory entry budget.  A PathDataset holds no token arrays; on
#: the cold perfbench shapes one pickles to 66-157 KB (110 KB on average).
DEFAULT_MEM_ENTRIES = 256

#: Stage recorded (with its call count) for every cache hit.
CACHE_HIT_STAGE = "features.cache_hit"

#: Feature-extraction source files folded into the cache key on top of the
#: build-relevant scope already covered by ``code_fingerprint``.
_FEATURE_CODE_FILES = ("features.py", "sampling.py")


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


def path_dataset_key(
    record: Any,
    variant: str,
    sampling: Any,
    endpoint_names: Optional[Sequence[str]],
) -> str:
    """Content-address of one ``extract_path_dataset`` call.

    ``endpoint_names`` participates because the shared sampling RNG makes the
    extracted paths a function of the exact endpoint subset, not just of the
    per-endpoint inputs.  ``record`` must carry its build key.
    """
    if record.key is None:
        raise ValueError(f"record {record.name!r} carries no build key")
    if endpoint_names is None:
        endpoints = "*"
    else:
        endpoints = ",".join(str(name) for name in endpoint_names)
    parts = (
        "path-dataset/v1",
        f"code={feature_code_fingerprint()}",
        f"record={record.key}",
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
    ):
        if directory is None:
            directory = default_cache_dir() / "features"
        self.max_entries = max(int(max_entries), 1)
        self.disk = ArtifactCache(
            directory, counter_prefix="feature_disk", budget_share=DISK_BUDGET_SHARE
        )
        self._memory: "OrderedDict[str, Any]" = OrderedDict()

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
        self.disk.put(key, value)
        return value

    def clear(self) -> None:
        """Drop the in-memory layer (the disk layer is left untouched)."""
        self._memory.clear()

    # -- internals -----------------------------------------------------------

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


def path_feature_cache() -> PathFeatureCache:
    """The process-wide cache."""
    global _ACTIVE_CACHE
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

    ``extractor`` runs exactly when the record carries no build key or the
    key misses both layers.
    """
    if record.key is None:
        return extractor()
    key = path_dataset_key(record, variant, sampling, endpoint_names)
    return path_feature_cache().get_or_extract(key, extractor)

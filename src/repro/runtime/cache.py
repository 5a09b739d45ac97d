"""Content-addressed on-disk artifact cache.

Elaborating a :class:`~repro.core.dataset.DesignRecord` (HDL generation →
parse/analyze → bit-blasting into four BOG variants → pseudo-STA → label
synthesis) is by far the most expensive step of the stack and is repeated
from scratch on every pytest session in the seed.  This module persists
those artifacts between sessions — and between CI runs, via ``actions/cache``
— keyed by *content*:

``key = sha256(generator spec ⊕ dataset config ⊕ build-relevant source files)``

so any edit to the generator, bit-blaster, STA or synthesis code silently
invalidates every stale entry.  Values are stored as individual pickle files
under two-level fan-out directories (``<dir>/<key[:2]>/<key>.pkl``) with
atomic writes, so concurrent writers (parallel workers, parallel CI jobs on
a shared cache volume) can never observe a torn entry.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default ``~/.cache/repro``),
* ``REPRO_CACHE=0`` — disable the cache entirely,
* ``REPRO_CACHE_MAX_MB`` — size budget; a store keeps to its share of it
  by pruning itself every :data:`PRUNE_EVERY` stores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import pickle
import shutil
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, TypeVar

import numpy as np

from repro import settings
from repro.faults import fault_fires
from repro.runtime import report as report_mod

T = TypeVar("T")

#: Environment variable naming the cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Set to ``0`` to disable the artifact cache.
CACHE_ENABLE_ENV_VAR = "REPRO_CACHE"

#: Size budget (in MiB) enforced by :meth:`ArtifactCache.prune`.
CACHE_MAX_MB_ENV_VAR = "REPRO_CACHE_MAX_MB"

#: Pickle protocol used for cached artifacts and fingerprints.
PICKLE_PROTOCOL = 5

#: Stores between prune passes of one store (a prune walks its directory).
PRUNE_EVERY = 64

#: Paths (relative to ``src/repro``) whose content participates in cache
#: keys: everything that can change the bytes of a built DesignRecord.
_CODE_SCOPE = ("hdl", "bog", "sta", "synth", "liberty.py", "core/dataset.py")


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend the cyclic GC around (de)serialization of huge object graphs.

    Unpickling a multi-megabyte DesignRecord allocates millions of container
    objects; with the collector enabled, the allocation-count heuristic fires
    repeatedly over an ever-growing live heap, making ``pickle.loads`` 3-5x
    slower.  Nothing created mid-load is garbage, so pausing the collector is
    pure win.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    env = settings.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def cache_enabled() -> bool:
    """Whether the on-disk cache is enabled (``REPRO_CACHE=0`` disables)."""
    return settings.get(CACHE_ENABLE_ENV_VAR)


# ---------------------------------------------------------------------------
# Content keys
# ---------------------------------------------------------------------------


def code_paths() -> List[Path]:
    """The source files whose bytes :func:`code_fingerprint` covers."""
    root = Path(__file__).resolve().parent.parent  # src/repro
    paths: List[Path] = []
    for entry in _CODE_SCOPE:
        path = root / entry
        if path.is_dir():
            paths.extend(sorted(path.rglob("*.py")))
        elif path.exists():
            paths.append(path)
    return paths


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every build-relevant source file plus interpreter versions.

    Cached per process: source files do not change under a running session,
    and hashing the tree costs a few milliseconds we do not want on every
    record lookup.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    digest.update(f"python={sys.version_info[:2]}".encode())
    digest.update(f"numpy={np.__version__}".encode())
    digest.update(f"pickle={PICKLE_PROTOCOL}".encode())
    for path in code_paths():
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def record_key(spec_or_source: Any, config: Any = None, name: Optional[str] = None) -> str:
    """Content-address of one DesignRecord build.

    ``spec_or_source`` mirrors :func:`repro.core.dataset.build_design_record`:
    either a :class:`~repro.hdl.generate.DesignSpec` or raw Verilog text.
    Frozen-dataclass ``repr`` is stable and covers every field, so it is used
    verbatim as the spec/config payload.  A spec record renamed by ``name``
    has a key of its own.
    """
    from repro.core.dataset import DatasetConfig
    from repro.hdl.generate import DesignSpec

    config = config or DatasetConfig()
    parts = ["design-record/v1", f"code={code_fingerprint()}", f"config={config!r}"]
    if isinstance(spec_or_source, DesignSpec):
        parts.append(f"spec={spec_or_source!r}")
        if name:
            parts.append(f"name={name}")
    else:
        parts.append(f"name={name or 'user_design'}")
        parts.append(f"source={spec_or_source}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def record_fingerprint(record: Any) -> str:
    """Canonical content hash of a DesignRecord.

    Two normalizations make fingerprints byte-identical wherever the record
    came from (built serially, shipped back from a pool worker, or reloaded
    from the on-disk cache):

    * ``synthesis.runtime_seconds`` — the only wall-clock field — is zeroed;
    * the record is passed through one ``pickle`` dump/load roundtrip before
      the hashed dump.  A freshly built record shares interned string
      constants (e.g. the ``"register"`` kind markers) with process-global
      enum values, which pickle's memoization encodes as back-references; a
      loaded record holds equal-but-distinct copies, so raw dumps of the two
      differ while their *content* is identical.  One roundtrip collapses
      both to the same fixed point (verified idempotent by the runtime
      tests), after which byte equality means content equality.
    """
    synthesis = dataclasses.replace(record.synthesis, runtime_seconds=0.0)
    normalized = dataclasses.replace(record, synthesis=synthesis)
    with gc_paused():
        canonical = pickle.loads(pickle.dumps(normalized, protocol=PICKLE_PROTOCOL))
        blob = pickle.dumps(canonical, protocol=PICKLE_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/store counts for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ArtifactCache:
    """Pickle-valued key/value store with atomic writes and hit/miss stats.

    ``counter_prefix`` names the runtime-report counters this instance
    increments (``<prefix>_hits`` / ``<prefix>_misses`` / ...), so secondary
    caches layered on this store (e.g. the path-feature cache) report their
    traffic separately from the DesignRecord artifact cache.

    ``budget_share`` sets the store's size budget, ``max_bytes``: ``1/share``
    of ``REPRO_CACHE_MAX_MB`` as read at construction, or no budget for
    ``None`` (a store that is never pruned).  Every :data:`PRUNE_EVERY`
    stores the store prunes itself to that budget.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        enabled: Optional[bool] = None,
        counter_prefix: str = "cache",
        budget_share: Optional[int] = 1,
    ):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.enabled = cache_enabled() if enabled is None else bool(enabled)
        self.counter_prefix = counter_prefix
        self.max_bytes: Optional[int] = None
        if budget_share is not None:
            self.max_bytes = settings.get(CACHE_MAX_MB_ENV_VAR) * 1024 * 1024 // budget_share
        self.stats = CacheStats()
        self._stores_since_prune = 0

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(
        self, key: str, default: Optional[T] = None, corrupt: Optional[bool] = None
    ) -> Optional[T]:
        """Load the value stored under ``key``; ``default`` on any miss.

        A corrupt or unreadable entry (torn write from an old crash, pickle
        from an incompatible class layout) counts as a miss and is deleted so
        it cannot fail again.  ``corrupt`` is the ``cache.corrupt_entry``
        draw when the caller made it (a pool worker's comes from the
        parent); None draws it here.
        """
        if not self.enabled:
            self._miss()
            return default
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
            if fault_fires("cache.corrupt_entry") if corrupt is None else corrupt:
                # Chaos: the read came back bit-flipped and truncated.
                blob = bytes([blob[0] ^ 0xFF]) + blob[1 : max(len(blob) // 2, 1)]
            with gc_paused():
                value = pickle.loads(blob)
        except FileNotFoundError:
            self._miss()
            return default
        except Exception:
            report_mod.incr(f"{self.counter_prefix}_corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            self._miss()
            return default
        self.stats.hits += 1
        report_mod.incr(f"{self.counter_prefix}_hits")
        return value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key`` atomically; False if storing failed.

        The cache is best-effort: a full disk or read-only directory must
        never break the build, so OS errors are swallowed.
        """

        def dump(handle) -> None:
            with gc_paused():
                pickle.dump(value, handle, protocol=PICKLE_PROTOCOL)

        return self._write(key, dump)

    def put_bytes(self, key: str, blob: bytes) -> bool:
        """Store an already pickled value (``blob``) under ``key``, as :meth:`put`.

        For values pickled elsewhere — a pool worker's record — so the
        writer never pickles them a second time.
        """
        return self._write(key, lambda handle: handle.write(blob))

    def _write(self, key: str, write: Callable[[Any], Any]) -> bool:
        if not self.enabled:
            return False
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    write(handle)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception:
            # Full disk, read-only directory, unpicklable value, recursion
            # limit on a pathological graph: none of these may break a build
            # that already succeeded.
            return False
        self.stats.stores += 1
        report_mod.incr(f"{self.counter_prefix}_stores")
        self._stores_since_prune += 1
        if self._stores_since_prune >= PRUNE_EVERY:
            self.prune()
        return True

    def load_or_build(self, key: str, builder: Callable[[], T]) -> T:
        """Return the cached value for ``key``, building and storing on miss."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            value = builder()
            self.put(key, value)
        return value  # type: ignore[return-value]

    def clear(self) -> None:
        """Delete the entire cache directory."""
        shutil.rmtree(self.directory, ignore_errors=True)

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the cache fits ``max_bytes``.

        Every edit to a file in the key scope orphans the previous generation
        of entries (their keys become unreachable), so without eviction the
        directory grows by tens of megabytes per generation.  The store calls
        this every :data:`PRUNE_EVERY` stores and the dataset build after
        storing new entries; entries just written or recently hit have fresh
        mtimes and survive.  ``max_bytes`` defaults to the store's budget; a
        store without one is never pruned.  Returns the number of files
        deleted.
        """
        self._stores_since_prune = 0
        if max_bytes is None:
            max_bytes = self.max_bytes
        if not self.enabled or max_bytes is None:
            # A disabled cache (REPRO_CACHE=0 rebuild) must not mutate the
            # on-disk state it was told not to touch.
            return 0
        entries = []
        total = 0
        try:
            # Only this cache's own two-level fan-out layout (<xx>/<key>.pkl):
            # nested sibling caches (e.g. the path-feature cache under
            # features/) manage their own budget and must not have their
            # entries charged against — or evicted by — this one.
            for path in self.directory.glob("[0-9a-f][0-9a-f]/*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        except OSError:
            return 0
        deleted = 0
        entries.sort()  # oldest first
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            deleted += 1
        if deleted:
            report_mod.incr(f"{self.counter_prefix}_evictions", deleted)
        return deleted

    def _miss(self) -> None:
        self.stats.misses += 1
        report_mod.incr(f"{self.counter_prefix}_misses")

"""Parallel, cached dataset construction.

Each design is elaborated completely independently of the others
(generate → parse → bit-blast → pseudo-STA → label synthesis), so dataset
construction is embarrassingly parallel — the same property the LZ DAQ
exploits across digitizer channels.  :func:`build_dataset_parallel` takes
benchmark :class:`~repro.hdl.generate.DesignSpec` items and raw-source
:class:`SourceItem` items side by side, so one ingest (a retrain's training,
fuzz and holdout designs together) is one fan-out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* tasks are submitted largest source first, so the longest builds never
  trail behind a worker that drew them last;
* each worker pickles its record once (protocol 5, GC paused) and returns
  the bytes; the parent writes those bytes as the cache entry and loads
  them once, so no record is ever pickled twice;
* results come back in item order regardless of completion order, so the
  output is element-wise identical to a serial build
  (``repro.runtime.cache.record_fingerprint`` equality is covered by the
  determinism tests).

Worker count resolution: explicit ``jobs`` argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``; always clamped to the number
of tasks.  ``REPRO_JOBS=1`` forces the serial path, and any failure to stand
up the pool (sandboxed environments without fork, unpicklable config) or a
worker crash taking down the pool degrades gracefully: whatever the pool did
not return is built serially in-process rather than failing the build.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import pickle
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import settings
from repro.runtime import report as report_mod
from repro.runtime.cache import PICKLE_PROTOCOL, ArtifactCache, gc_paused, record_key

#: Environment variable fixing the worker count (``1`` = serial).
JOBS_ENV_VAR = "REPRO_JOBS"

#: Failures that cost one task (or, for a broken pool, every pending task)
#: but never the build: the lost items are rebuilt in-process.
_POOL_ERRORS = (OSError, ValueError, BrokenExecutor, pickle.PicklingError)


class SourceItem(NamedTuple):
    """A raw-Verilog build item: ``source`` elaborated as design ``name``.

    Keyed exactly like ``/predict`` keys raw source
    (``record_key(source, config, name)``), so a design ingested here and
    the same design posted to a server share one cache entry.
    """

    source: str
    name: str


def resolve_jobs(n_tasks: Optional[int] = None, jobs: Optional[int] = None) -> int:
    """Resolve the effective worker count (argument > env > cpu count)."""
    if jobs is None:
        jobs = settings.get(JOBS_ENV_VAR)
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    if n_tasks is not None:
        jobs = min(jobs, max(1, n_tasks))
    return max(1, jobs)


def _item_key(item: Any, config: Any = None) -> str:
    """The artifact-cache key of one build item (spec, source item or text)."""
    if isinstance(item, SourceItem):
        return record_key(item.source, config, item.name)
    return record_key(item, config)


def _build_item(item: Any, config: Any) -> Any:
    from repro.core.dataset import build_design_record

    if isinstance(item, SourceItem):
        return build_design_record(item.source, config, name=item.name)
    return build_design_record(item, config)


def _source_size(item: Any) -> int:
    """Characters of Verilog an item elaborates (the scheduling weight)."""
    from repro.hdl.generate import DesignSpec, generate_design

    if isinstance(item, DesignSpec):
        return len(generate_design(item))
    return len(item.source if isinstance(item, SourceItem) else item)


def _reintern(value: Any) -> Any:
    """Re-intern the strings of a transported spec/config dataclass.

    Pool inputs arrive in the worker as pickle copies, so their short strings
    (``"sog"``, design names, ...) are *distinct* objects from the interned
    literals the worker's module code uses — whereas in an in-process build
    they are the very same objects.  Pickle encodes that sharing topology in
    its memo, so without re-interning, a worker-built record serializes to
    different bytes than a serially-built one even though the content is
    equal.  Interning restores the exact topology of the serial build.
    """
    if isinstance(value, str):
        # Raw Verilog sources also land here; interning only pays (and only
        # restores literal sharing) for short identifier-like strings.
        return sys.intern(value) if len(value) <= 256 else value
    if isinstance(value, SourceItem):
        return SourceItem(value.source, _reintern(value.name))
    if isinstance(value, tuple):
        return tuple(_reintern(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        replacements = {
            field.name: _reintern(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if isinstance(getattr(value, field.name), (str, tuple))
        }
        return dataclasses.replace(value, **replacements) if replacements else value
    return value


def _build_record_task(payload: Tuple[int, Any, Any]) -> Tuple[int, bytes]:
    """Worker entry point: build one DesignRecord, return it pickled once."""
    from repro.faults import fault_fires

    index, item, config = payload
    if fault_fires("parallel.worker_crash", token=getattr(item, "name", str(index))):
        os._exit(13)  # hard exit: breaks the pool, exercising the retry path
    record = _build_item(_reintern(item), _reintern(config))
    with gc_paused():
        return index, pickle.dumps(record, protocol=PICKLE_PROTOCOL)


def _make_executor(max_workers: int) -> ProcessPoolExecutor:
    # Prefer fork where available: workers inherit sys.path and the already
    # imported package, and the hash seed — keeping set/dict iteration order,
    # and therefore build output, identical to the parent process.
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return ProcessPoolExecutor(max_workers=max_workers)
    return ProcessPoolExecutor(max_workers=max_workers, mp_context=context)


#: ``store(index, record, blob)``: called once per record as it arrives, so
#: each worker's bytes are written and dropped at once rather than all held
#: to the end.  ``blob`` is ``None`` for a record built in-process.
Store = Callable[[int, Any, Optional[bytes]], None]


def _build_records(items: List[Any], config: Any, jobs: Optional[int], store: Store) -> List[Any]:
    """Build ``items`` in one fan-out; records in item order."""
    records: Dict[int, Any] = {}

    def build_serial(indices: Sequence[int], stage_name: str) -> None:
        with report_mod.stage(stage_name):
            for index in indices:
                records[index] = _build_item(items[index], config)
                store(index, records[index], None)

    jobs = resolve_jobs(len(items), jobs)
    if jobs <= 1 or len(items) <= 1:
        build_serial(range(len(items)), "dataset.build_serial")
        return [records[index] for index in range(len(items))]

    order = sorted(range(len(items)), key=lambda index: -_source_size(items[index]))
    fallback = False
    try:
        with report_mod.stage("dataset.build_parallel"), _make_executor(jobs) as pool:
            futures = {}
            for index in order:
                with contextlib.suppress(*_POOL_ERRORS, RuntimeError):
                    futures[pool.submit(_build_record_task, (index, items[index], config))] = index
            for future in as_completed(futures):
                # One crashed worker breaks its own future — and, for a
                # BrokenProcessPool, every future still queued — but the
                # records already returned stay good.  Only the losses are
                # rebuilt below; completed work is never discarded.
                try:
                    index, blob = future.result()
                except _POOL_ERRORS:
                    continue
                with gc_paused():
                    records[index] = pickle.loads(blob)
                store(index, records[index], blob)
    except _POOL_ERRORS:
        # Pool never stood up (sandbox without fork, unpicklable config).
        fallback = True
        report_mod.incr("parallel_fallbacks")
    lost = [index for index in range(len(items)) if index not in records]
    if lost:
        # A genuine per-design build error reproduces here with a clean
        # traceback.
        if fallback:
            build_serial(lost, "dataset.build_serial")
        else:
            report_mod.incr("parallel_worker_retries", len(lost))
            build_serial(lost, "dataset.build_retry_serial")
    return [records[index] for index in range(len(items))]


def parallel_build_records(
    specs: Sequence[Any],
    config: Any = None,
    jobs: Optional[int] = None,
) -> List[Any]:
    """Build DesignRecords for ``specs`` (uncached), fanning out across processes.

    Items are :class:`~repro.hdl.generate.DesignSpec` or :class:`SourceItem`
    objects, or raw Verilog text.  Results are returned in item order regardless of
    completion order.  Falls back to the serial path when ``jobs`` resolves
    to 1 or the pool cannot be used.
    """
    from repro.core.dataset import DatasetConfig

    return _build_records(list(specs), config or DatasetConfig(), jobs, lambda *_: None)


def build_dataset_parallel(
    specs: Optional[Sequence[Any]] = None,
    config: Any = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
    report: Optional[report_mod.RuntimeReport] = None,
) -> List[Any]:
    """Cached, parallel equivalent of the seed's serial ``build_dataset``.

    ``specs`` mixes :class:`~repro.hdl.generate.DesignSpec` and
    :class:`SourceItem` items freely.  Per-item records are first looked up in
    the content-addressed artifact cache; only the misses are built (in one
    parallel fan-out) and stored back.  Pass
    ``cache=ArtifactCache(enabled=False)`` — or set ``REPRO_CACHE=0`` — to
    force a full rebuild, and ``report=`` (or an outer
    :func:`repro.runtime.report.activate` block) to collect per-stage wall
    time and cache hit/miss counters.
    """
    from repro.core.dataset import DatasetConfig
    from repro.hdl.generate import BENCHMARK_SPECS

    items = list(BENCHMARK_SPECS if specs is None else specs)
    config = config or DatasetConfig()
    if cache is None:
        cache = ArtifactCache()

    scope = report_mod.activate(report) if report is not None else contextlib.nullcontext()
    with scope:
        with report_mod.stage("dataset.build"):
            keys = [_item_key(item, config) for item in items]
            with report_mod.stage("dataset.cache_lookup"), gc_paused():
                # One GC pause across the whole loop: re-enabling between
                # entries makes the collector walk the ever-growing heap of
                # already-loaded records once per lookup.
                records: List[Any] = [cache.get(key) for key in keys]
            missing = [index for index, record in enumerate(records) if record is None]
            if missing:

                def store(position: int, record: Any, blob: Optional[bytes]) -> None:
                    key = keys[missing[position]]
                    with report_mod.stage("dataset.cache_store"):
                        if blob is None:
                            cache.put(key, record)
                        else:
                            cache.put_bytes(key, blob)

                built = _build_records([items[index] for index in missing], config, jobs, store)
                for index, record in zip(missing, built):
                    records[index] = record
                # New stores may have pushed the directory past its size
                # budget (old code generations leave unreachable entries).
                cache.prune()
            for record, key in zip(records, keys):
                # The build key is a full content identity for the record
                # (item ⊕ config ⊕ build code); stash it so downstream caches
                # (path features) can address the record without re-pickling
                # it into a fingerprint.  Any fingerprint that rode along in a
                # cached pickle predates this session's key and is dropped.
                record.__dict__.pop("_feature_fingerprint", None)
                record.__dict__["_content_key"] = key
            report_mod.incr("designs", len(items))
    return records

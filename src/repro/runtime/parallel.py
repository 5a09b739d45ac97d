"""Process-pool fan-out, and the parallel, cached dataset build on top of it.

:func:`fan_out` runs independent tasks across forked workers: dataset
construction (each design is elaborated on its own — the per-channel
independence the LZ DAQ exploits across digitizer channels) and the
per-variant path-model fits of :class:`~repro.core.bitwise.BitwiseArrivalModel`.
Workers fork after the task is registered, so they inherit it and every
input it reads; nothing is pickled on the way in.  Tasks are submitted
largest first, and each worker pickles its result once (protocol 5, GC
paused) and returns it with the runtime report it recorded.

:func:`build_dataset_parallel` takes :class:`~repro.hdl.generate.DesignSpec`
and raw-source :class:`SourceItem` items side by side, so one ingest (a
retrain's training, fuzz and holdout designs) is one fan-out.  The parent
writes each worker's bytes as the cache entry and loads them once, and
records come back in item order, element-wise identical to a serial build
(``record_fingerprint`` equality is covered by the determinism tests).

Worker count: explicit ``jobs``, else ``REPRO_JOBS``, else
``os.cpu_count()``, clamped to the number of tasks.  ``REPRO_JOBS=1`` and
platforms without fork run in-process; a pool that cannot stand up or a
crashed worker degrades gracefully: whatever the pool did not return runs
in-process rather than failing.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import multiprocessing
import os
import pickle
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.runtime import report as report_mod
from repro.runtime.cache import PICKLE_PROTOCOL, ArtifactCache, gc_paused, record_key

#: Environment variable fixing the worker count (``1`` = serial).
JOBS_ENV_VAR = "REPRO_JOBS"

#: Failures that cost one task (or, for a broken pool, every pending task)
#: but never the fan-out: the lost tasks rerun in-process.
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


def canonicalize(value: Any, copy: Any = None, original: Any = None) -> Any:
    """Give a worker's result the object sharing of an in-process result.

    In a pickle copy, short strings (``"sog"``, ``"hist"``) are no longer
    the interned literals the parent's code uses, arrays carry private
    dtype copies, and parts taken from an inherited object (``copy``, say a
    config) are copies of ``original``'s parts.  Pickle encodes sharing in
    its memo, so a state holding the copy serializes (and a bundle hashes)
    differently although every value is equal.  This swaps each part of
    ``copy`` for the matching part of ``original``, re-interns the other
    strings and re-views arrays on the builtin dtype, in place where the
    container is mutable; shared objects stay shared.
    """
    memo: Dict[int, Any] = {}

    def pair(part: Any, counterpart: Any) -> None:
        if id(part) in memo:
            return
        memo[id(part)] = counterpart
        if isinstance(part, (list, tuple)):
            for entry, match in zip(part, counterpart):
                pair(entry, match)
        elif isinstance(part, dict):
            for key, entry in part.items():
                pair(entry, counterpart[key])
        elif isinstance(getattr(part, "__dict__", None), dict):
            pair(vars(part), vars(counterpart))

    def walk(item: Any) -> Any:
        if item is None or isinstance(item, (bool, int, float)):
            return item
        if id(item) in memo:
            return memo[id(item)]
        if isinstance(item, str):
            return sys.intern(item) if len(item) <= 256 else item
        memo[id(item)] = item
        if isinstance(item, np.ndarray):
            builtin = np.dtype(item.dtype.str)
            if builtin.isbuiltin and item.dtype is not builtin:
                memo[id(item)] = item.view(builtin)
        elif isinstance(item, list):
            item[:] = [walk(entry) for entry in item]
        elif isinstance(item, dict):
            entries = [(walk(key), walk(entry)) for key, entry in item.items()]
            item.clear()
            item.update(entries)
        elif isinstance(item, tuple):
            entries = tuple(walk(entry) for entry in item)
            if any(new is not old for new, old in zip(entries, item)):
                memo[id(item)] = type(item)(*entries) if hasattr(item, "_fields") else entries
        elif isinstance(getattr(item, "__dict__", None), dict):
            # Attribute names come back interned already (pickle interns
            # them); only the values need the walk.
            attributes = vars(item)
            for name, entry in attributes.items():
                attributes[name] = walk(entry)
        return memo[id(item)]

    if copy is not None:
        pair(copy, original)
    return walk(value)


#: Tasks of the fan-outs in flight, by fan-out id.  A fan-out registers its
#: task before its pool forks, so every worker inherits the task together
#: with everything the task reads: no input is ever pickled.
_INHERITED: Dict[int, Callable[[int], Any]] = {}
_FAN_OUT_IDS = itertools.count()

#: ``collect(index, value, blob)``: called once per task result as it
#: arrives.  ``blob`` is the worker's pickle of ``value``, or ``None`` for a
#: value computed in-process.
Collect = Callable[[int, Any, Optional[bytes]], None]


def _run_inherited(fan_out: int, index: int, token: str) -> Tuple[int, bytes, Any]:
    """Worker entry point: run one inherited task, return its pickle and report."""
    from repro.faults import fault_fires

    if fault_fires("parallel.worker_crash", token=token):
        os._exit(13)  # hard exit: breaks the pool, exercising the retry path
    report = report_mod.RuntimeReport()
    with report_mod.activate(report):
        value = _INHERITED[fan_out](index)
    with gc_paused():
        return index, pickle.dumps(value, protocol=PICKLE_PROTOCOL), report


def fan_out(
    task: Callable[[int], Any],
    n_tasks: int,
    collect: Collect,
    *,
    stage: str,
    token: Callable[[int], str],
    size: Optional[Callable[[int], int]] = None,
    jobs: Optional[int] = None,
) -> None:
    """Run ``task(0) .. task(n_tasks - 1)`` on forked workers; ``collect`` each result.

    Tasks are submitted largest ``size`` first.  Each worker pickles its
    result once (protocol 5, GC paused) and returns it with the
    :class:`~repro.runtime.report.RuntimeReport` it recorded, which is merged
    into the active report.  Whatever the pool does not return — a crashed
    worker (``parallel_worker_retries``) or a pool that never stood up
    (``parallel_fallbacks``) — runs in-process afterwards, as does the whole
    fan-out when ``jobs`` resolves to 1 or the platform cannot fork.  Stages:
    ``<stage>_parallel``, ``<stage>_serial`` and ``<stage>_retry_serial``.
    ``token(index)`` names a task for the ``parallel.worker_crash`` fault.
    """
    done = set()

    def run_serial(indices: Sequence[int], stage_name: str) -> None:
        with report_mod.stage(stage_name):
            for index in indices:
                collect(index, task(index), None)
                done.add(index)

    jobs = resolve_jobs(n_tasks, jobs)
    if jobs <= 1 or n_tasks <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        run_serial(range(n_tasks), f"{stage}_serial")
        return

    order = sorted(range(n_tasks), key=lambda index: -size(index)) if size else range(n_tasks)
    key = next(_FAN_OUT_IDS)
    _INHERITED[key] = task
    fallback = False
    try:
        # gc.freeze in each worker: its collector then never walks the
        # inherited heap, which would cost a full pass over the parent's
        # records and copy every page it touches.
        with report_mod.stage(f"{stage}_parallel"), ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("fork"), initializer=gc.freeze
        ) as pool:
            futures = {}
            for index in order:
                with contextlib.suppress(*_POOL_ERRORS, RuntimeError):
                    futures[pool.submit(_run_inherited, key, index, token(index))] = index
            for future in as_completed(futures):
                # A future holds its result, blob included: popped here and
                # dropped after collect, so each worker's bytes go at once.
                del futures[future]
                # One crashed worker breaks its own future — and, for a
                # BrokenProcessPool, every future still queued — but the
                # results already returned stay good.  Only the losses are
                # rerun below; completed work is never discarded.
                try:
                    index, blob, worker_report = future.result()
                except _POOL_ERRORS:
                    continue
                del future
                active = report_mod.active_report()
                if active is not None:
                    active.merge(worker_report)
                with gc_paused():
                    value = pickle.loads(blob)
                collect(index, value, blob)
                del blob, value
                done.add(index)
    except _POOL_ERRORS:
        # Pool never stood up (resource limits, sandboxed process table).
        fallback = True
        report_mod.incr("parallel_fallbacks")
    finally:
        del _INHERITED[key]
    lost = [index for index in range(n_tasks) if index not in done]
    if lost:
        # A genuine task error reproduces here with a clean traceback.
        if fallback:
            run_serial(lost, f"{stage}_serial")
        else:
            report_mod.incr("parallel_worker_retries", len(lost))
            run_serial(lost, f"{stage}_retry_serial")


def _build_records(items: List[Any], config: Any, jobs: Optional[int], store: Collect) -> List[Any]:
    """Build ``items`` in one fan-out; records in item order.

    ``store`` sees each record as it arrives, so each worker's bytes are
    written and dropped at once rather than all held to the end.
    """
    records: Dict[int, Any] = {}

    def collect(index: int, record: Any, blob: Optional[bytes]) -> None:
        records[index] = record
        store(index, record, blob)

    fan_out(
        lambda index: _build_item(items[index], config),
        len(items),
        collect,
        stage="dataset.build",
        token=lambda index: getattr(items[index], "name", str(index)),
        size=lambda index: _source_size(items[index]),
        jobs=jobs,
    )
    return [records[index] for index in range(len(items))]


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
            report_mod.incr("designs", len(items))
    return records

"""Structured runtime instrumentation for the execution engine.

A :class:`RuntimeReport` accumulates per-stage wall time, call counts and
event counters across one run of the stack (dataset construction, training,
inference, benchmarks).  Any layer of the codebase can participate without
threading a report object through every signature: a report is *activated*
for the current context (:func:`activate`) and lower layers record into it
via the module-level :func:`stage` / :func:`incr` helpers, which are no-ops
when no report is active.

The serialized form (``BENCH_runtime.json``, see :meth:`RuntimeReport.write`)
is the machine-readable perf trajectory consumed by the CI benchmark-trend
job: per-stage seconds, cache hit/miss counts and designs/second, in the
spirit of coreblocks' per-commit ``benchmark.json``.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import platform
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro import settings

#: Environment variable overriding where :meth:`RuntimeReport.write` puts the report.
BENCH_ENV_VAR = "REPRO_BENCH_OUT"

#: Version tag of the emitted JSON schema.
REPORT_SCHEMA = "repro-bench-runtime/1"

#: Stage names shared between the incremental benchmark harness and the
#: derived ``incremental_whatif_speedup`` metric — one constant, two users,
#: so a rename cannot silently drop the metric from the CI trend.
WHATIF_SWEEP_STAGE = "incremental.whatif_sweep"
FULL_RESYNTHESIS_STAGE = "incremental.full_resynthesis"

#: Stage names of the search-based optimizer (:mod:`repro.optimize`).
#: ``optimize.search`` wraps a whole campaign; ``optimize.score`` is the
#: pure incremental-scoring time (all evaluations), ``optimize.score_accepted``
#: the slice of it spent on accepted moves, ``optimize.anchor_synthesis`` the
#: re-anchoring ground-truth syntheses, and ``optimize.full_resynthesis`` is
#: recorded by the benchmark harness when it re-scores the same accepted
#: candidates by full synthesis to measure ``optimize_sweep_speedup``.
OPT_SEARCH_STAGE = "optimize.search"
OPT_SCORE_STAGE = "optimize.score"
OPT_SCORE_ACCEPTED_STAGE = "optimize.score_accepted"
OPT_ANCHOR_STAGE = "optimize.anchor_synthesis"
OPT_FULL_RESYNTHESIS_STAGE = "optimize.full_resynthesis"


@dataclass
class RuntimeReport:
    """Accumulated per-stage wall time and counters for one run.

    Recording (:meth:`add_stage` / :meth:`incr` / :meth:`merge`) and
    snapshotting (:meth:`to_dict`) are thread-safe: the serving layer
    records from HTTP handler threads and its batching worker into one
    shared report while ``/metrics`` scrapes it.
    """

    stages: Dict[str, float] = field(default_factory=dict)
    stage_calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.RLock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)  # locks are process-local, not picklable
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- recording ----------------------------------------------------------

    def add_stage(self, name: str, seconds: float) -> None:
        """Add ``seconds`` of wall time to stage ``name``."""
        with self._lock:
            self.stages[name] = self.stages.get(name, 0.0) + float(seconds)
            self.stage_calls[name] = self.stage_calls.get(name, 0) + 1

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator["RuntimeReport"]:
        """Time the enclosed block under stage ``name``.

        Stages may nest; a nested stage's time is counted both in its own
        entry and in every enclosing stage (entries are independent timers,
        not a strict tree).
        """
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.add_stage(name, time.perf_counter() - started)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment event counter ``name`` by ``amount``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def merge(self, other: "RuntimeReport") -> "RuntimeReport":
        """Fold another report's stages and counters into this one."""
        # Snapshot the source first so merging a *live* report (e.g. the
        # serving layer's) never iterates dicts its writers are resizing.
        with other._lock:
            stages = dict(other.stages)
            stage_calls = dict(other.stage_calls)
            counters = dict(other.counters)
            meta = dict(other.meta)
        with self._lock:
            for name, seconds in stages.items():
                self.stages[name] = self.stages.get(name, 0.0) + seconds
            for name, calls in stage_calls.items():
                self.stage_calls[name] = self.stage_calls.get(name, 0) + calls
            for name, amount in counters.items():
                self.counters[name] = self.counters.get(name, 0) + amount
            self.meta.update(meta)
        return self

    # -- derived ------------------------------------------------------------

    def stage_seconds(self, name: str, default: float = 0.0) -> float:
        return self.stages.get(name, default)

    def designs_per_second(self) -> Optional[float]:
        """Dataset throughput, when both the counter and the stage exist."""
        designs = self.counters.get("designs", 0)
        build = self.stages.get("dataset.build", 0.0)
        if designs <= 0 or build <= 0.0:
            return None
        return designs / build

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> Dict[str, object]:
        derived: Dict[str, object] = {}
        throughput = self.designs_per_second()
        if throughput is not None:
            derived["designs_per_second"] = round(throughput, 4)
        hits = self.counters.get("cache_hits", 0)
        misses = self.counters.get("cache_misses", 0)
        if hits + misses:
            derived["cache_hit_rate"] = round(hits / (hits + misses), 4)
        whatif = self.stages.get(WHATIF_SWEEP_STAGE, 0.0)
        full = self.stages.get(FULL_RESYNTHESIS_STAGE, 0.0)
        if whatif > 0.0 and full > 0.0:
            derived["incremental_whatif_speedup"] = round(full / whatif, 2)
        runs = self.counters.get("incremental_runs", 0)
        recomputed = self.counters.get("incremental_recomputed_vertices", 0)
        if runs:
            derived["incremental_vertices_per_run"] = round(recomputed / runs, 1)
        serve_requests = self.counters.get("serve_requests", 0)
        serve_batches = self.counters.get("serve_batches", 0)
        if serve_requests and serve_batches:
            # Realized micro-batch size of the serving layer (1.0 = no fusion).
            derived["serve_batch_size"] = round(serve_requests / serve_batches, 2)
        optimize_evals = self.counters.get("optimize_evals", 0)
        score_seconds = self.stages.get(OPT_SCORE_STAGE, 0.0)
        if optimize_evals and score_seconds > 0.0:
            derived["optimize_evals_per_second"] = round(optimize_evals / score_seconds, 2)
        accepted_seconds = self.stages.get(OPT_SCORE_ACCEPTED_STAGE, 0.0)
        full_seconds = self.stages.get(OPT_FULL_RESYNTHESIS_STAGE, 0.0)
        if accepted_seconds > 0.0 and full_seconds > 0.0:
            # Incremental scoring of accepted candidates vs synthesizing them.
            derived["optimize_sweep_speedup"] = round(full_seconds / accepted_seconds, 2)
        return {
            "schema": REPORT_SCHEMA,
            "generated_at": time.time(),
            "meta": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "argv": sys.argv[:4],
                "settings": settings.snapshot(),
                **self.meta,
            },
            "stages": {name: round(seconds, 6) for name, seconds in sorted(self.stages.items())},
            "stage_calls": dict(sorted(self.stage_calls.items())),
            "counters": dict(sorted(self.counters.items())),
            "derived": derived,
        }

    def write(self, path: Optional[os.PathLike] = None) -> Path:
        """Write the report as JSON; returns the path written.

        The destination is, in order of precedence: the explicit ``path``
        argument, the ``REPRO_BENCH_OUT`` environment variable, or
        ``BENCH_runtime.json`` in the current directory.
        """
        if path is None:
            path = settings.get(BENCH_ENV_VAR)
        destination = Path(path)
        if destination.parent != Path("."):
            destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n")
        return destination


# ---------------------------------------------------------------------------
# Active-report plumbing
# ---------------------------------------------------------------------------

_ACTIVE: contextvars.ContextVar[Optional[RuntimeReport]] = contextvars.ContextVar(
    "repro_runtime_report", default=None
)


def active_report() -> Optional[RuntimeReport]:
    """The report currently collecting instrumentation, if any."""
    return _ACTIVE.get()


@contextlib.contextmanager
def activate(report: RuntimeReport) -> Iterator[RuntimeReport]:
    """Make ``report`` the active collector for the enclosed block."""
    token = _ACTIVE.set(report)
    try:
        yield report
    finally:
        _ACTIVE.reset(token)


@contextlib.contextmanager
def stage(name: str) -> Iterator[None]:
    """Time the enclosed block into the active report (no-op when inactive)."""
    report = _ACTIVE.get()
    if report is None:
        yield
        return
    with report.stage(name):
        yield


def incr(name: str, amount: int = 1) -> None:
    """Increment a counter on the active report (no-op when inactive)."""
    report = _ACTIVE.get()
    if report is not None:
        report.incr(name, amount)


def write_bench_report(report: RuntimeReport, path: Optional[os.PathLike] = None) -> Path:
    """Convenience wrapper used by the benchmark harness."""
    return report.write(path)

"""Span recording around the public calls of each ``repro`` layer.

:func:`install` wraps the calls listed in :data:`LAYER_CALLS` (plus a few
container calls whose self time is glue between layers) and records one
span per call in memory: name, start, end, same-thread parent, request id,
and — for a batch run on behalf of requests waiting in other threads — the
ids of the spans it served.  :func:`dump` writes them as JSON.

Modules bind functions with ``from … import``, so a function is replaced on
every module that holds it, not only where it is defined.  Spans inside
pool workers and ``build_dataset`` worker processes are not recorded; their
time lands in the parent's ``serve.supervisor`` or ``runtime.parallel``
span.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, qualified attribute, span name).  Names in parentheses are
#: containers (glue between layers), not layers.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.http", "TimingRequestHandler.do_POST", "serve.http"),
    ("repro.serve.http", "prediction_to_json", "serve.http"),
    ("repro.serve.service", "TimingService.record_for_source", "serve.service"),
    ("repro.serve.service", "TimingService.predict_with_stats", "serve.service"),
    ("repro.serve.service", "TimingService.what_if", "serve.service"),
    ("repro.serve.service", "TimingService._execute_batch", "serve.service"),
    ("repro.serve.service", "PooledTimingService._execute_batch", "serve.service"),
    ("repro.serve.registry", "ModelRegistry.load_with_manifest", "serve.registry"),
    ("repro.serve.registry", "ModelRegistry.payload", "serve.registry"),
    ("repro.serve.registry", "ModelRegistry.save", "serve.registry"),
    ("repro.runtime.cache", "ArtifactCache.load_or_build", "runtime.cache"),
    ("repro.runtime.cache", "ArtifactCache.get", "runtime.cache"),
    ("repro.runtime.cache", "ArtifactCache.put", "runtime.cache"),
    ("repro.runtime.parallel", "build_dataset_parallel", "runtime.parallel"),
    ("repro.hdl.parser", "parse_source", "hdl"),
    ("repro.hdl.design", "analyze", "hdl"),
    ("repro.bog.transforms", "build_variants", "bog"),
    ("repro.sta.network", "from_bog", "sta"),
    ("repro.sta.engine", "analyze", "sta"),
    ("repro.synth.flow", "synthesize_bog", "synth"),
    ("repro.core.feature_cache", "cached_extract_path_dataset", "core.features"),
    ("repro.core.features", "extract_path_dataset", "core.features"),
    ("repro.core.bitwise", "BitwiseArrivalModel.fit", "core.bitwise"),
    ("repro.core.bitwise", "BitwiseArrivalModel.predict", "core.bitwise"),
    ("repro.core.signalwise", "SignalwiseModel.fit", "core.signalwise"),
    ("repro.core.signalwise", "SignalwiseModel.predict", "core.signalwise"),
    ("repro.core.overall", "OverallTimingModel.fit", "core.overall"),
    ("repro.core.overall", "OverallTimingModel.predict", "core.overall"),
    ("repro.ml.gbm", "GradientBoostingRegressor.fit", "ml.fit"),
    ("repro.ml.gbm", "GradientBoostingRegressor.predict", "ml.predict"),
    ("repro.ml.lambdamart", "LambdaMARTRanker.fit", "ml.fit"),
    ("repro.ml.lambdamart", "LambdaMARTRanker.predict", "ml.predict"),
    ("repro.incremental.whatif", "evaluate_candidates", "incremental"),
    ("repro.lifecycle.evaluate", "evaluate_timer", "lifecycle"),
    ("repro.core.dataset", "build_design_record", "(core.dataset)"),
    ("repro.core.pipeline", "RTLTimer.fit", "(core.pipeline)"),
    ("repro.core.pipeline", "RTLTimer.predict", "(core.pipeline)"),
    ("repro.core.pipeline", "RTLTimer.predict_batch", "(core.pipeline)"),
    ("repro.core.pipeline", "RTLTimer.what_if", "(core.pipeline)"),
)


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: id(record) -> ids of the predict spans waiting on that record.
        self._waiting: Dict[int, List[int]] = {}
        self._waiting_lock = threading.Lock()
        #: Bytes pickled onto worker pipes, per thread.
        self._sent = threading.local()

    # -- span plumbing --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self) -> Optional[str]:
        return getattr(self._local, "req", None)

    def open(self, name: str, req: Optional[str] = None, served=None, call: str = "") -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span = [
            next(self._ids),
            name,
            time.perf_counter(),
            None,
            parent,
            req if req is not None else self.current_request(),
            served,
            None,
            call,
        ]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    # -- output ---------------------------------------------------------------

    def records(self) -> List[dict]:
        keys = ("id", "name", "start", "end", "parent", "req", "served", "attrs", "call")
        return [dict(zip(keys, span)) for span in self.spans if span[3] is not None]

    def dump(self, path: str) -> None:
        payload = {"spans": self.records(), "overhead_per_span_s": calibrate(self)}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


TRACER = Tracer()


def _plain(fn: Callable, name: str, call: str = "") -> Callable:
    def wrapper(*args, **kwargs):
        if not TRACER.enabled:
            return fn(*args, **kwargs)
        span = TRACER.open(name, call=call)
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.close(span)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _do_post(fn: Callable, name: str, call: str) -> Callable:
    """Request root: the benchmark names each request in ``X-Bench-Op``."""

    def wrapper(handler, *args, **kwargs):
        if not TRACER.enabled:
            return fn(handler, *args, **kwargs)
        req = handler.headers.get("X-Bench-Op") or f"anon-{id(handler)}"
        TRACER._local.req = req
        span = TRACER.open(name, req=req, call=call)
        try:
            return fn(handler, *args, **kwargs)
        finally:
            TRACER.close(span)
            TRACER._local.req = None

    wrapper.__wrapped__ = fn
    return wrapper


def _predict_with_stats(fn: Callable, name: str, call: str) -> Callable:
    """Registers the waiting span so the batch that serves it can link to it."""

    def wrapper(service, record, *args, **kwargs):
        if not TRACER.enabled:
            return fn(service, record, *args, **kwargs)
        span = TRACER.open(name, call=call)
        with TRACER._waiting_lock:
            TRACER._waiting.setdefault(id(record), []).append(span[0])
        try:
            return fn(service, record, *args, **kwargs)
        finally:
            TRACER.close(span)

    wrapper.__wrapped__ = fn
    return wrapper


def _execute_batch(fn: Callable, name: str, call: str) -> Callable:
    def wrapper(service, batch, *args, **kwargs):
        if not TRACER.enabled:
            return fn(service, batch, *args, **kwargs)
        served = []
        with TRACER._waiting_lock:
            for request in batch:
                waiting = TRACER._waiting.get(id(request.record))
                if waiting:
                    served.append(waiting.pop(0))
                    if not waiting:
                        del TRACER._waiting[id(request.record)]
        span = TRACER.open(name, served=served, call=call)
        try:
            return fn(service, batch, *args, **kwargs)
        finally:
            TRACER.close(span)

    wrapper.__wrapped__ = fn
    return wrapper


def _hit_marking(fn: Callable, name: str, call: str, builder_at: Optional[int]) -> Callable:
    """Cache calls record ``hit``: for getters, whether a value came back;
    for build-on-miss calls, whether the builder (positional argument
    ``builder_at``) stayed unused."""

    def wrapper(*args, **kwargs):
        if not TRACER.enabled:
            return fn(*args, **kwargs)
        span = TRACER.open(name, call=call)
        try:
            if builder_at is None or len(args) <= builder_at:
                result = fn(*args, **kwargs)
                if call.endswith(".get"):
                    span[7] = {"hit": result is not None}
                return result
            built = []
            builder = args[builder_at]

            def marked_builder():
                built.append(True)
                return builder()

            args = args[:builder_at] + (marked_builder,) + args[builder_at + 1:]
            result = fn(*args, **kwargs)
            span[7] = {"hit": not built}
            return result
        finally:
            TRACER.close(span)

    wrapper.__wrapped__ = fn
    return wrapper


#: Position of the build-on-miss callable, for cache calls that take one.
_BUILDER_AT = {
    "ArtifactCache.load_or_build": 2,
    "ArtifactCache.get": None,
    "ArtifactCache.put": None,
    "cached_extract_path_dataset": 4,
}


def _install_pool_spans() -> None:
    """``serve.supervisor`` spans: from ``WorkerPool.submit`` to ``.result()``.

    IPC time is the span minus the ``runtime_seconds`` the worker reports;
    request bytes are what the parent pickled onto the worker pipe.
    """
    import multiprocessing.connection as mpc

    from repro.serve import supervisor

    send_bytes = mpc.Connection._send_bytes

    def counting_send_bytes(conn, buf):
        sent = getattr(TRACER._sent, "bytes", 0)
        TRACER._sent.bytes = sent + len(buf)
        return send_bytes(conn, buf)

    mpc.Connection._send_bytes = counting_send_bytes

    submit = supervisor.WorkerPool.submit
    result = supervisor.PoolRequestHandle.result

    def traced_submit(pool, kind, *data, **kwargs):
        if not TRACER.enabled:
            return submit(pool, kind, *data, **kwargs)
        before = getattr(TRACER._sent, "bytes", 0)
        stack = TRACER._stack()
        parent = stack[-1][0] if stack else None
        started = time.perf_counter()
        handle = submit(pool, kind, *data, **kwargs)
        handle._bench_span = [
            next(TRACER._ids),
            "serve.supervisor",
            started,
            None,
            parent,
            None,
            None,
            {"request_bytes": getattr(TRACER._sent, "bytes", 0) - before},
            "WorkerPool.submit",
        ]
        return handle

    def traced_result(handle):
        span = getattr(handle, "_bench_span", None)
        try:
            value = result(handle)
        finally:
            if span is not None:
                span[3] = time.perf_counter()
                span[7]["retries"] = max(handle.attempts - 1, 0)
                TRACER.spans.append(span)
        if span is not None:
            span[7]["runtime_s"] = float(getattr(value, "runtime_seconds", 0.0) or 0.0)
        return value

    supervisor.WorkerPool.submit = traced_submit
    supervisor.PoolRequestHandle.result = traced_result


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> None:
    """Wrap every call in :data:`LAYER_CALLS`; idempotent per process."""
    if getattr(install, "done", False):
        return
    install.done = True
    _import_all()
    for module_name, qualname, name in LAYER_CALLS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        if attr == "do_POST":
            wrapped = _do_post(original, name, qualname)
        elif attr == "predict_with_stats":
            wrapped = _predict_with_stats(original, name, qualname)
        elif attr == "_execute_batch":
            wrapped = _execute_batch(original, name, qualname)
        elif qualname in _BUILDER_AT:
            wrapped = _hit_marking(original, name, qualname, _BUILDER_AT[qualname])
        else:
            wrapped = _plain(original, name, qualname)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    _install_pool_spans()
    # Forked pool workers inherit the wrappers; their spans would never be
    # written, so they run untraced.
    os.register_at_fork(after_in_child=lambda: setattr(TRACER, "enabled", False))


def calibrate(tracer: Tracer, calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain call, measured here."""

    def noop():
        return None

    wrapped = _plain(noop, "(calibration)")
    saved_spans, saved_enabled = tracer.spans, tracer.enabled
    tracer.spans, tracer.enabled = [], True
    try:
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - started
    finally:
        tracer.spans, tracer.enabled = saved_spans, saved_enabled
    return max(traced - plain, 0.0) / calls

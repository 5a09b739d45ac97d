"""The repository's benchmark: the paths users hit, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_predict --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``cold_predict``
    ``repro serve`` in-process; every ``/predict`` carries source the server
    has never seen (five like-sized Table-3 shapes, re-seeded), empty cache.
``warm_mixed``
    The same server with a warmed hot set of 8 sources; 3 in 4 requests are
    ``/predict`` and 1 in 4 is ``/whatif`` (k=8).
``pooled_predict``
    ``repro serve --workers max(1, nproc-1)`` on the hot set, ``/predict`` only.
``retrain``
    ``repro retrain`` (default preset) on fresh cache and registry dirs,
    with 4 seeded ``medium`` fuzz designs.

Serving load is a closed loop from this one process: each client
connection stands for a tool waiting on its reply.  Every reply is checked
against in-process ``RTLTimer`` on the same bundle; ``retrain`` must exit 0
with the verdict ``promote``.  The last stdout line is the JSON result;
``--trace 1`` reruns the program under :mod:`launch` and reports per-layer
self times instead of end-to-end metrics.

The serving bundle is trained once per source tree with ``repro train``
defaults (seed 0) and cached under ``.perfbench/build``; every run copies it
into a fresh model directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MODEL = "rtl-timer"
NPROC = os.cpu_count() or 1

#: Work per second of ``--seconds``: each run does a fixed amount of work,
#: sized so that it measures about ``--seconds`` on a 2-core machine at the
#: time the benchmark was written.  A faster program does the same work in
#: less time rather than more work, so both commits of a comparison time
#: identical operations.
PASSES_PER_SECOND = {"warm_mixed": 1.5, "pooled_predict": 0.5}
#: Cold rounds (every cold shape once) and retrain cycles per second of
#: ``--seconds``.
ROUNDS_PER_SECOND = {"cold_predict": 0.3, "retrain": 1 / 30.0}

#: Server launches per serving run; ``setup_s`` takes their median.
LAUNCHES = 3
#: ``repro retrain --help`` start-ups per retrain run (its ``setup_s``).
CLI_STARTS = 5
#: Cold replies re-checked against a fresh in-process elaboration.
COLD_CHECKS = 2
#: Floor of the holdout R (the paper reports R > 0.89).
MIN_HOLDOUT_R = 0.89

END_TO_END = {
    "p50_s": "s",
    "mean_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_r": "1",
}

PER_LAYER = {
    "server_s": "s",
    "serve.http.self_s": "s",
    "serve.http.response_bytes": "bytes",
    "serve.service.self_s": "s",
    "serve.service.queue_wait_s": "s",
    "serve.service.batch_size": "count",
    "serve.service.record_hit_ratio": "1",
    "serve.supervisor.self_s": "s",
    "serve.supervisor.ipc_s": "s",
    "serve.supervisor.request_bytes": "bytes",
    "serve.supervisor.retries": "count",
    "serve.registry.self_s": "s",
    "runtime.cache.self_s": "s",
    "runtime.cache.hit_ratio": "1",
    "runtime.parallel.self_s": "s",
    "hdl.self_s": "s",
    "hdl.calls": "count",
    "bog.self_s": "s",
    "sta.self_s": "s",
    "sta.calls": "count",
    "synth.self_s": "s",
    "core.features.self_s": "s",
    "core.features.calls": "count",
    "core.features.hit_ratio": "1",
    "core.bitwise.self_s": "s",
    "core.signalwise.self_s": "s",
    "core.overall.self_s": "s",
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "ml.fit_calls": "count",
    "incremental.self_s": "s",
    "incremental.recomputed_vertices": "count",
    "lifecycle.self_s": "s",
    "unattributed_s": "s",
    "unattributed_share": "1",
    "trace.overhead_s": "s",
    "trace.op_mean_s": "s",
}

#: Per-layer metrics that are shares, not per-operation totals.
RATIOS = {"runtime.cache.hit_ratio", "core.features.hit_ratio", "serve.service.record_hit_ratio"}

#: Layer span name -> per-layer self-time metric.
SELF_METRICS = {
    "serve.http": "serve.http.self_s",
    "serve.service": "serve.service.self_s",
    "serve.supervisor": "serve.supervisor.self_s",
    "serve.registry": "serve.registry.self_s",
    "runtime.cache": "runtime.cache.self_s",
    "runtime.parallel": "runtime.parallel.self_s",
    "hdl": "hdl.self_s",
    "bog": "bog.self_s",
    "sta": "sta.self_s",
    "synth": "synth.self_s",
    "core.features": "core.features.self_s",
    "core.bitwise": "core.bitwise.self_s",
    "core.signalwise": "core.signalwise.self_s",
    "core.overall": "core.overall.self_s",
    "ml.fit": "ml.fit_s",
    "ml.predict": "ml.predict_s",
    "incremental": "incremental.self_s",
    "lifecycle": "lifecycle.self_s",
    "unattributed_s": "unattributed_s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


# ---------------------------------------------------------------------------
# Build: the serving bundle, once per source tree
# ---------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256(platform.python_version().encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def program_env(run_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["REPRO_MODEL_DIR"] = str(run_dir / "models")
    return env


def ensure_bundle() -> Path:
    """Train the serving bundle for this source tree unless it is cached."""
    import fcntl

    build = WORK / "build" / source_digest()
    build.mkdir(parents=True, exist_ok=True)
    with open(build / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build / "ready").exists():
            shutil.rmtree(build / "models", ignore_errors=True)
            shutil.rmtree(build / "cache", ignore_errors=True)
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "train", "--name", MODEL, "--seed", "0"],
                env=program_env(build),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=800,
            )
            if proc.returncode != 0:
                raise BenchError(f"repro train failed:\n{proc.stderr[-2000:]}")
            shutil.rmtree(build / "cache", ignore_errors=True)
            (build / "ready").write_text(proc.stdout)
    return build / "models"


# ---------------------------------------------------------------------------
# Processes: launch, readiness, RSS, shutdown
# ---------------------------------------------------------------------------


class RssSampler:
    """Peak RSS (``VmHWM``) of a process, or of it plus its child processes.

    High-water marks never fall, so sampling every 50 ms misses at most the
    last 50 ms of a process; with ``tree`` the marks of the live children
    (pool workers) are added to the parent's.
    """

    def __init__(self, pid: int, tree: bool):
        self.pid = pid
        self.tree = tree
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @staticmethod
    def _children(pid: int) -> List[int]:
        found = []
        with contextlib.suppress(OSError):
            for task in os.listdir(f"/proc/{pid}/task"):
                with contextlib.suppress(OSError):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        found.extend(int(c) for c in handle.read().split())
        return found

    @staticmethod
    def _hwm_kb(pid: int) -> int:
        with contextlib.suppress(OSError, ValueError):
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        return 0

    def sample(self) -> None:
        pids = [self.pid] + (self._children(self.pid) if self.tree else [])
        self.peak_kb = max(self.peak_kb, sum(self._hwm_kb(pid) for pid in pids))

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(0.05)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak_kb / 1024.0


class Server:
    """One ``repro serve`` process on an OS-assigned port."""

    def __init__(self, run_dir: Path, workers: int, spans_out: Optional[Path]):
        command = ["serve", "--model", MODEL, "--port", "0"]
        if workers:
            command += ["--workers", str(workers)]
        if spans_out is not None:
            argv = [sys.executable, str(HERE / "launch.py"), str(spans_out)] + command
        else:
            argv = [sys.executable, "-m", "repro"] + command
        self.workers = workers
        self.log_path = run_dir / f"serve-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        # A session of its own, so a server that ignores SIGINT is killed
        # together with its pool workers.
        self.proc = subprocess.Popen(
            argv, env=program_env(run_dir), cwd=ROOT, stdout=self._log, stderr=self._log,
            start_new_session=True,
        )
        self.rss = RssSampler(self.proc.pid, tree=True)
        self.port: Optional[int] = None
        self.killed = False
        self.stop_s = 0.0

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from process start until it answers (workers all alive)."""
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early:\n{self.log_path.read_text()[-2000:]}")
            if self.port is None:
                match = pattern.search(self.log_path.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None:
                with contextlib.suppress(OSError, http.client.HTTPException, ValueError):
                    if self._ready():
                        return time.perf_counter() - self.started
            time.sleep(0.01)
        raise BenchError("server did not become ready")

    def _ready(self) -> bool:
        status, body = get_json(self.port, "/health")
        if status != 200:
            return False
        if not self.workers:
            return True
        status, body = get_json(self.port, "/metrics")
        workers = body.get("serving", {}).get("workers", [])
        return len(workers) == self.workers and all(w.get("alive") for w in workers)

    def stop(self) -> float:
        """SIGINT (clean shutdown), then kill if needed; returns peak RSS MB."""
        self.rss.sample()
        started = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.killed = True
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=10)
        self.stop_s = time.perf_counter() - started
        peak = self.rss.stop()
        self._log.close()
        return peak


def get_json(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Client: a closed loop of requests
# ---------------------------------------------------------------------------


class Op(SimpleNamespace):
    """One request: id, route, source index, latency, status, raw reply."""


def post(conn: http.client.HTTPConnection, op: Op, source: inputs.Source) -> None:
    payload = {"source": source.text, "name": source.name}
    if op.route == "whatif":
        payload["k"] = inputs.WHATIF_K
    body = json.dumps(payload).encode()
    started = time.perf_counter()
    conn.request(
        "POST",
        f"/{op.route}",
        body=body,
        headers={"Content-Type": "application/json", "X-Bench-Op": op.id},
    )
    response = conn.getresponse()
    op.reply = response.read()
    op.latency = time.perf_counter() - started
    op.status = response.status


def closed_loop(
    port: int,
    clients: int,
    next_op: Callable[[], Optional[Op]],
    sources: List[inputs.Source],
    ledger: stats.Ledger,
) -> List[Op]:
    """``clients`` connections, each sending its next op when the last returns."""
    done: List[Op] = []
    lock = threading.Lock()
    failures: List[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
        try:
            while True:
                with lock:
                    op = next_op()
                    if op is None:
                        return
                    ledger.attempt(op.id)
                try:
                    post(conn, op, sources[op.source])
                except (OSError, http.client.HTTPException) as exc:
                    op.status, op.reply, op.latency = 0, str(exc).encode(), float("nan")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
                with lock:
                    done.append(op)
        except BaseException as exc:  # surfaced below; a client must not vanish
            failures.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    for op in done:
        if op.status != 200:
            ledger.fail(op.id, f"HTTP {op.status}: {op.reply[:200]!r}")
    return done


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


def predict_answer(reply: Dict[str, Any]) -> str:
    return canonical({k: v for k, v in reply.items() if k not in ("runtime_seconds", "serve")})


def whatif_answer(record, estimates) -> str:
    """The ``/whatif`` reply shape, built from in-process estimates."""
    return canonical(
        {
            "design": record.name,
            "candidates": [
                {
                    "index": index,
                    "wns": float(estimate.wns),
                    "tns": float(estimate.tns),
                    "n_patches": int(estimate.n_patches),
                    "uses_grouping": bool(estimate.options.uses_grouping),
                    "uses_retiming": bool(estimate.options.uses_retiming),
                    "retime_signals": list(estimate.options.retime_signals or []),
                }
                for index, estimate in enumerate(estimates)
            ],
        }
    )


class Reference:
    """In-process ``RTLTimer`` on the same bundle the server loaded.

    ``cache_dir`` is where this process's own caches live: the server's
    (hot-set references then reuse its elaborations and path features and
    recompute the model passes) or a private one (cold checks elaborate and
    extract everything again).
    """

    def __init__(self, run_dir: Path, cache_dir: Path):
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        os.environ["REPRO_MODEL_DIR"] = str(run_dir / "models")
        from repro.serve.registry import ModelRegistry

        self.server_cache = run_dir / "cache"
        self.timer = ModelRegistry(run_dir / "models").load(MODEL)

    def record(self, source: inputs.Source, fresh: bool = False):
        """The server's cached record for ``source``, or a fresh elaboration."""
        from repro.core.dataset import build_design_record
        from repro.runtime.cache import ArtifactCache, record_key

        if fresh:
            return build_design_record(source.text, name=source.name)
        return ArtifactCache(self.server_cache).load_or_build(
            record_key(source.text, None, source.name),
            lambda: build_design_record(source.text, name=source.name),
        )

    def predict(self, record) -> str:
        from repro.serve.http import prediction_to_json

        return predict_answer(prediction_to_json(self.timer.predict(record)))

    def whatif(self, record) -> str:
        return whatif_answer(record, self.timer.what_if(record, k=inputs.WHATIF_K))

    def signal_r(self, record, reply: Dict[str, Any]) -> float:
        from repro.lifecycle.evaluate import design_signal_r

        prediction = SimpleNamespace(signal_arrival=reply["signal_arrival"])
        return design_signal_r(self.timer, record, prediction)


def check_replies(ops: List[Op], expected: Dict[tuple, str], ledger: stats.Ledger) -> None:
    for op in ops:
        if op.status != 200:
            continue
        reply = json.loads(op.reply)
        answer = predict_answer(reply) if op.route == "predict" else canonical(reply)
        want = expected.get((op.route, op.source))
        if want is not None and answer != want:
            ledger.fail(op.id, f"{op.route} reply differs from in-process RTLTimer")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Run:
    """State shared by one workload run."""

    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.ledger = stats.Ledger()
        self.metrics: Dict[str, float] = {}
        self.report: Dict[str, Any] = {}
        self.spans_files: List[Path] = []
        self.ops: List[Op] = []

    @property
    def traced(self) -> bool:
        return bool(self.args.trace)

    def spans_path(self, tag: str) -> Optional[Path]:
        if not self.traced:
            return None
        path = self.run_dir / f"spans-{tag}.json"
        self.spans_files.append(path)
        return path


def launch_ready(run: Run, workers: int) -> tuple:
    """Launch the server ``LAUNCHES`` times (once when traced); keep the last."""
    launches = 1 if run.traced else LAUNCHES
    times = []
    server = None
    for index in range(launches):
        last = index == launches - 1
        server = Server(run.run_dir, workers, run.spans_path("serve") if last else None)
        try:
            times.append(server.wait_ready())
        except BaseException:
            server.stop()
            raise
        if not last:
            server.stop()
            run.report.setdefault("stops", []).append([server.stop_s, server.killed])
    return server, stats.median(times), times


def serve_ops(run: Run, server: Server, ops: List[Op], sources, clients: int):
    before = get_json(server.port, "/metrics")[1]
    started = time.perf_counter()
    iterator = iter(ops)
    done = closed_loop(server.port, clients, lambda: next(iterator, None), sources, run.ledger)
    window = time.perf_counter() - started
    after = get_json(server.port, "/metrics")[1]
    run.report["window_s"] = window
    run.report["counters_delta"] = {
        key: after.get("counters", {}).get(key, 0) - before.get("counters", {}).get(key, 0)
        for key in after.get("counters", {})
    }
    return done


def warm_hot_set(run: Run, server: Server, hot, whatif: bool) -> float:
    """Send every hot source once (and one ``/whatif`` when the mix has them)."""
    routes = ["predict", "whatif"] if whatif else ["predict"]
    ops = [
        Op(id=f"warm-{route}-{index}", route=route, source=index)
        for index in range(len(hot))
        for route in routes
    ]
    iterator = iter(ops)
    started = time.perf_counter()
    done = closed_loop(server.port, 1, lambda: next(iterator, None), hot, run.ledger)
    run.ops.extend(done)
    return time.perf_counter() - started


def hot_references(run: Run, hot, whatif: bool):
    reference = Reference(run.run_dir, run.run_dir / "cache")
    expected, rs = {}, []
    for index, source in enumerate(hot):
        record = reference.record(source)
        expected[("predict", index)] = reference.predict(record)
        if whatif:
            expected[("whatif", index)] = reference.whatif(record)
        rs.append(reference.signal_r(record, json.loads(expected[("predict", index)])))
    return expected, rs


def workload_warm(run: Run, pooled: bool) -> None:
    seed = run.args.seed
    hot = inputs.hot_set(seed)
    whatif = not pooled
    workers = max(1, NPROC - 1) if pooled else 0
    server, launch_s, launches = launch_ready(run, workers)
    try:
        warm_s = warm_hot_set(run, server, hot, whatif)
        run.metrics["setup_s"] = launch_s + warm_s
        run.report.update(launch_s=launches, warm_s=warm_s)
        expected, rs = hot_references(run, hot, whatif)
        stream = inputs.request_stream(
            seed, work(run, PASSES_PER_SECOND), len(hot),
            inputs.WHATIFS_PER_PASS if whatif else 0,
        )
        ops = [Op(id=str(i), route=route, source=src) for i, (route, src) in enumerate(stream)]
        done = serve_ops(run, server, ops, hot, clients=CLIENTS[run.args.workload])
    finally:
        run.metrics["peak_rss_mb"] = server.stop()
        run.report.setdefault("stops", []).append([server.stop_s, server.killed])
    run.ops.extend(done)
    check_replies(run.ops, expected, run.ledger)
    run.metrics["mean_r"] = sum(rs) / len(rs)
    measured = [op for op in done if op.status == 200]
    set_latency_metrics(run, measured)
    run.report["routes"] = route_table(measured, "pooled" if pooled else "warm")


def workload_cold(run: Run) -> None:
    seed = run.args.seed
    server, launch_s, launches = launch_ready(run, 0)
    run.metrics["setup_s"] = launch_s
    run.report["launch_s"] = launches
    sources: List[inputs.Source] = []
    done: List[Op] = []
    try:
        started = time.perf_counter()
        # Whole rounds: each sends every cold shape once.
        for round_index in range(work(run, ROUNDS_PER_SECOND)):
            first = len(sources)
            sources.extend(inputs.cold_round(seed, round_index))
            ops = [Op(id=str(i), route="predict", source=i) for i in range(first, len(sources))]
            iterator = iter(ops)
            done.extend(closed_loop(
                server.port, CLIENTS["cold_predict"], lambda: next(iterator, None),
                sources, run.ledger,
            ))
        run.report["window_s"] = time.perf_counter() - started
    finally:
        run.metrics["peak_rss_mb"] = server.stop()
        run.report.setdefault("stops", []).append([server.stop_s, server.killed])
    run.ops.extend(done)
    reference = Reference(run.run_dir, run.run_dir / "reference-cache")
    checked = set(inputs.sample(seed, len(done), COLD_CHECKS))
    rs = []
    for index, op in enumerate(done):
        if op.status != 200:
            continue
        reply = json.loads(op.reply)
        source = sources[op.source]
        if index in checked:
            fresh = reference.record(source, fresh=True)
            if predict_answer(reply) != reference.predict(fresh):
                run.ledger.fail(op.id, "cold reply differs from in-process RTLTimer")
        rs.append(reference.signal_r(reference.record(source), reply))
    run.metrics["mean_r"] = sum(rs) / len(rs) if rs else 0.0
    measured = [op for op in done if op.status == 200]
    set_latency_metrics(run, measured)
    run.report["routes"] = route_table(measured, "cold")
    run.report["checked_fresh"] = sorted(checked)


def workload_retrain(run: Run) -> None:
    seed = run.args.seed
    env_dir = run.run_dir
    starts = []
    for _ in range(CLI_STARTS):
        started = time.perf_counter()
        fresh_dirs(env_dir)
        subprocess.run(
            [sys.executable, "-m", "repro", "retrain", "--help"],
            env=program_env(env_dir), cwd=ROOT, capture_output=True, check=True, timeout=60,
        )
        starts.append(time.perf_counter() - started)
    run.metrics["setup_s"] = stats.median(starts)
    run.report["setup_samples_s"] = starts
    cycles, rs, peaks = [], [], []
    for cycle in range(work(run, ROUNDS_PER_SECOND)):
        fresh_dirs(env_dir)
        seeds = inputs.fuzz_seeds(seed, cycle)
        report_out = env_dir / "eval.json"
        command = [
            "retrain", "--fuzz-seeds", ",".join(map(str, seeds)),
            "--fuzz-size-class", "medium", "--report-out", str(report_out),
        ]
        spans_out = run.spans_path(f"retrain-{cycle}")
        if spans_out is not None:
            argv = [sys.executable, str(HERE / "launch.py"), str(spans_out)] + command
        else:
            argv = [sys.executable, "-m", "repro"] + command
        op = Op(id=f"cycle-{cycle}", route="retrain", source=cycle, status=None)
        run.ledger.attempt(op.id)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=program_env(env_dir), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        sampler = RssSampler(proc.pid, tree=False)
        try:
            out, err = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        op.latency = time.perf_counter() - t0
        peaks.append(sampler.stop())
        op.status = proc.returncode
        run.ops.append(op)
        verdict = None
        with contextlib.suppress(ValueError):
            verdict = json.loads(out).get("verdict")
        if proc.returncode != 0 or verdict != "promote":
            run.ledger.fail(op.id, f"exit {proc.returncode}, verdict {verdict!r}: {err[-300:]}")
            continue
        report = json.loads(report_out.read_text())
        r = op.holdout_r = float(report["candidate"]["eval"]["mean_r"])
        rs.append(r)
        if r < MIN_HOLDOUT_R:
            run.ledger.fail(op.id, f"holdout R {r} below {MIN_HOLDOUT_R}")
        cycles.append(op)
        run.report.setdefault("cycles", []).append(
            {"fuzz_seeds": seeds, "seconds": op.latency, "holdout_r": r,
             "designs_r": report["candidate"]["eval"]["designs"]}
        )
    run.metrics["peak_rss_mb"] = max(peaks)
    run.metrics["mean_r"] = sum(rs) / len(rs) if rs else 0.0
    set_latency_metrics(run, cycles)
    run.report["routes"] = route_table(cycles, "retrain")


def work(run: Run, per_second: Dict[str, float]) -> int:
    """Passes, rounds or cycles of this run: fixed by ``--seconds``, at least 1."""
    return max(1, round(run.args.seconds * per_second[run.args.workload]))


def fresh_dirs(run_dir: Path) -> None:
    for name in ("cache", "models"):
        shutil.rmtree(run_dir / name, ignore_errors=True)
        (run_dir / name).mkdir(parents=True)


WORKLOADS = {
    "cold_predict": workload_cold,
    "warm_mixed": lambda run: workload_warm(run, pooled=False),
    "pooled_predict": lambda run: workload_warm(run, pooled=True),
    "retrain": workload_retrain,
}

#: Client connections of each serving workload (closed loop).  Two (nproc
#: here) make ``/whatif`` and ``/predict`` contend in ``warm_mixed``; the
#: one-worker pool and the cold front end would only queue behind a second
#: connection, which doubles latency and halves independent samples.
CLIENTS = {"cold_predict": 1, "warm_mixed": min(2, NPROC), "pooled_predict": 1}

#: Cache temperature of each workload's measured operations.
TEMPERATURE = {
    "cold_predict": "cold: empty cache dir, every source new to the server",
    "warm_mixed": "warm: hot set elaborated and featurized during set-up",
    "pooled_predict": "warm: hot set elaborated in the parent and warmed in the workers",
    "retrain": "cold: fresh cache and registry dirs every cycle",
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def set_latency_metrics(run: Run, ops: List[Op]) -> None:
    latencies = [op.latency for op in ops]
    if not latencies:
        return
    run.metrics["p50_s"] = stats.median(latencies)
    run.metrics["mean_s"] = sum(latencies) / len(latencies)


def route_table(ops: List[Op], prefix: str) -> Dict[str, Any]:
    """The workload's named latency metrics (p50 plus the supported tail)."""
    table: Dict[str, Any] = {}
    routes = sorted({op.route for op in ops})
    for route in routes:
        latencies = [op.latency for op in ops if op.route == route]
        label = {"cold": "cold_predict", "warm": "warm_predict", "pooled": "pooled_predict",
                 "retrain": "retrain"}[prefix] if route != "whatif" else "whatif"
        if route == "retrain":
            table["retrain_s"] = {"value": stats.median(latencies), "n": len(latencies)}
            table["holdout_r"] = {
                "value": stats.median([op.holdout_r for op in ops]), "n": len(ops), "unit": "1",
            }
            continue
        table[f"{label}_p50_s"] = {"value": stats.median(latencies), "n": len(latencies)}
        tail = stats.tail_percentile(len(latencies), (95, 90))
        if tail is not None:
            table[f"{label}_p{tail:g}_s"] = {
                "value": stats.percentile(latencies, tail), "n": len(latencies)
            }
        else:
            table[f"{label}_tail_s"] = {
                "value": None, "n": len(latencies),
                "note": f"{len(latencies)} samples support no tail percentile",
            }
    return table


def load_spans(path: Path) -> tuple:
    payload = json.loads(path.read_text())
    return payload["spans"], payload["overhead_per_span_s"]


def add_layers(values: Dict[str, float], layers: Dict[str, float], weight: float) -> None:
    for layer, seconds in layers.items():
        if layer in SELF_METRICS:
            values[SELF_METRICS[layer]] += seconds * weight


def layer_metrics(run: Run) -> Dict[str, float]:
    """Per-operation layer metrics of a traced run.

    ``server_s`` is the program-side time of one operation (the request's
    root span, or the whole retrain process); the layer self times and
    ``unattributed_s`` add up to it.
    """
    values = {name: 0.0 for name in PER_LAYER}
    if run.args.workload == "retrain":
        cycles = [op for op in run.ops if op.status == 0]
        n = max(len(run.spans_files), 1)
        for path in run.spans_files:
            spans, per_span = load_spans(path)
            layers = stats.layer_totals(spans)
            add_layers(values, layers, 1.0 / n)
            values["server_s"] += sum(layers.values()) / n
            for key, value in span_counts(spans).items():
                values[key] += value / n
            values["trace.overhead_s"] += per_span * len(spans) / n
        values["trace.op_mean_s"] = (
            sum(op.latency for op in cycles) / len(cycles) if cycles else 0.0
        )
    else:
        spans, per_span = load_spans(run.spans_files[-1])
        measured = {
            op.id: op for op in run.ops if op.status == 200 and not op.id.startswith("warm-")
        }
        n = max(len(measured), 1)
        table = stats.request_layers(spans)
        for req in measured:
            layers = table.get(req, {})
            add_layers(values, layers, 1.0 / n)
            values["server_s"] += sum(layers.values()) / n
        reqs = stats.span_requests(spans)
        window = [s for s in spans if any(r in measured for r in reqs[s["id"]])]
        for key, value in span_counts(window).items():
            values[key] = value if key in RATIOS else value / n
        selfs = stats.self_times(spans)
        values["serve.registry.self_s"] = sum(
            selfs[s["id"]] for s in spans if s["name"] == "serve.registry"
        )
        replies = [json.loads(op.reply) for op in measured.values() if op.route == "predict"]
        if replies:
            values["serve.service.queue_wait_s"] = sum(
                r["serve"]["queue_seconds"] for r in replies) / len(replies)
            values["serve.service.batch_size"] = sum(
                r["serve"]["batch_size"] for r in replies) / len(replies)
        values["serve.http.response_bytes"] = sum(len(op.reply) for op in measured.values()) / n
        values["incremental.recomputed_vertices"] = (
            run.report.get("counters_delta", {}).get("incremental_recomputed_vertices", 0) / n
        )
        values["trace.overhead_s"] = per_span * len(window) / n
        values["trace.op_mean_s"] = sum(op.latency for op in measured.values()) / n
    if values["server_s"] > 0:
        values["unattributed_share"] = values["unattributed_s"] / values["server_s"]
    return values


def span_counts(spans: List[dict]) -> Dict[str, float]:
    """Counts (totals over ``spans``) and ratios measured at layer boundaries."""
    by_id = {s["id"]: s for s in spans}
    has_children = {s["parent"] for s in spans}

    def parent_name(span: dict) -> Optional[str]:
        return by_id.get(span["parent"], {}).get("name")

    def calls(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    out: Dict[str, float] = {
        "hdl.calls": calls("hdl"),
        "sta.calls": calls("sta"),
        "ml.fit_calls": calls("ml.fit"),
        "core.features.calls": sum(
            1 for s in spans
            if s["call"] == "cached_extract_path_dataset" and not s["attrs"]["hit"]
        ),
        "runtime.cache.hit_ratio": 0.0,
        "core.features.hit_ratio": 0.0,
        "serve.service.record_hit_ratio": 0.0,
    }
    lookups = [s for s in spans if s["call"] == "cached_extract_path_dataset"]
    if lookups:
        out["core.features.hit_ratio"] = sum(1 for s in lookups if s["attrs"]["hit"]) / len(lookups)
    outer = [
        s for s in spans
        if s["name"] == "runtime.cache" and parent_name(s) != "runtime.cache"
        and (s.get("attrs") or {}).get("hit") is not None
    ]
    if outer:
        out["runtime.cache.hit_ratio"] = sum(1 for s in outer if s["attrs"]["hit"]) / len(outer)
    records = [s for s in spans if s["call"] == "TimingService.record_for_source"]
    if records:
        out["serve.service.record_hit_ratio"] = sum(
            1 for s in records if s["id"] not in has_children) / len(records)
    pool = [s for s in spans if s["name"] == "serve.supervisor"]
    out["serve.supervisor.ipc_s"] = sum(
        (s["end"] - s["start"]) - s["attrs"].get("runtime_s", 0.0) for s in pool)
    out["serve.supervisor.request_bytes"] = sum(s["attrs"]["request_bytes"] for s in pool)
    out["serve.supervisor.retries"] = sum(s["attrs"].get("retries", 0) for s in pool)
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def meta(args) -> Dict[str, Any]:
    import numpy

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_digest": source_digest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache_temperature": TEMPERATURE[args.workload],
        "repro_settings": {k: v for k, v in sorted(program_env(Path("<run>")).items())
                           if k.startswith("REPRO_")},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec: the servers would then never see the
    # SIGINT that shuts them down cleanly.  A handler here resets to the
    # default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Termination unwinds through the ``finally`` blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        models = ensure_bundle()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "cache").mkdir(parents=True)
    shutil.copytree(models, run_dir / "models")
    run = Run(args, run_dir)
    try:
        WORKLOADS[args.workload](run)
        if args.trace:
            metrics = layer_metrics(run)
            units = PER_LAYER
        else:
            metrics = run.metrics
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    correct = run.ledger.failed == 0
    result = {
        "correct": correct,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"meta": meta(args), "result": result, "report": run.report,
              "error_rate": run.ledger.error_rate, "failures": run.ledger.reasons(),
              "ops": [[op.id, op.route, op.source, op.latency, op.status] for op in run.ops]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print_table(args, run, metrics, units)
    print(json.dumps(result))
    return 0 if correct else 1


def print_table(args, run: Run, metrics, units) -> None:
    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"({TEMPERATURE[args.workload]})")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    for name, entry in run.report.get("routes", {}).items():
        value = entry["value"]
        shown = f"{value:>14.6g}" if value is not None else f"{'n/a':>14s}"
        print(f"  {name:34s} {shown} {entry.get('unit', 's')}   (n={entry['n']})")
    print(f"  {'error_rate':34s} {run.ledger.error_rate:>14.6g} 1   "
          f"({run.ledger.failed}/{run.ledger.attempted})")
    for reason in run.ledger.reasons():
        print(f"  FAILED {reason}")


if __name__ == "__main__":
    sys.exit(main())

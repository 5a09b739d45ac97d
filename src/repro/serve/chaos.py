"""Seed-replayable chaos campaigns against the fault-tolerant serving stack.

``python -m repro chaos`` is to the resilience subsystem what
``python -m repro fuzz`` is to the differential oracles: a campaign that
proves the claimed invariants against *injected* component failures rather
than trusting the happy path.  One campaign:

1. builds (or is handed) a small design set and a fitted timer, and
   computes the **healthy oracle** — the exact JSON every request must
   produce — before any fault is armed;
2. arms ``REPRO_FAULT_INJECT`` (worker crash/hang, cache corruption —
   per-fault probability, one campaign seed) and builds a
   :class:`PooledTimingService` behind the real HTTP server; the pool draws
   each request's worker faults in this process when it is submitted, so
   every later arming or clearing reaches all workers at once, and a
   request sheds its faults once it has killed a worker;
3. drives concurrent HTTP traffic (registered-name predicts, raw-source
   predicts that exercise elaboration + disk cache + STA kernel, what-if
   sweeps) and checks every 200 against the oracle byte for byte;
4. runs a **directed sweep** — each configured fault armed alone at
   probability 1 with traffic shaped to hit it — so "every recovery path
   exercised" holds on every seed, not just lucky ones;
5. clears the faults and measures **recovery**: how long until the service
   answers every design correctly again;
6. asserts the invariants — zero wrong answers, zero lost accepted
   requests (shed 429s are not accepted and not lost), availability over
   accepted traffic at or above the floor, recovery within the bound, and
   every fault-implied recovery path actually exercised — and
   publishes ``serve.chaos_*`` / ``serve.availability`` stages for the CI
   trend gate.

A violated campaign writes a replayable bundle (seed, faults, knobs,
violations) exactly like the fuzz runner's failing-seed bundles.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.faults import FAULT_ENV_VAR, FAULT_REGISTRY, format_faults, reset_draws
from repro.runtime import report as report_mod
from repro.runtime.cache import CACHE_DIR_ENV_VAR
from repro.serve.http import prediction_to_json, start_server, whatif_to_json
from repro.serve.service import PooledTimingService, ServeConfig, _percentile
from repro.serve.supervisor import PoolConfig

#: Schema tag of the replayable failure bundle.
CHAOS_BUNDLE_SCHEMA = "repro-chaos-bundle/1"

#: Stage names published into BENCH_runtime.json (CI gates trend on these).
CAMPAIGN_STAGE = "serve.chaos_campaign"
P50_STAGE = "serve.chaos_p50"
P95_STAGE = "serve.chaos_p95"
P99_STAGE = "serve.chaos_p99"
RECOVERY_STAGE = "serve.chaos_recovery"
AVAILABILITY_STAGE = "serve.availability"

#: Default fault mix of the CI chaos lane: every recovery path implied.
DEFAULT_FAULTS: Dict[str, float] = {
    "worker.crash": 0.08,
    "worker.hang": 0.03,
    "cache.corrupt_entry": 0.3,
}

#: Which observable evidence each fault must leave behind (any one counter
#: moving counts).  This is how "every recovery path exercised" is asserted
#: rather than assumed.
FAULT_EVIDENCE: Dict[str, Sequence[str]] = {
    "worker.crash": ("serve_worker_restarts",),
    "worker.hang": ("serve_worker_hangs",),
    "worker.slow_io": (),
    "cache.corrupt_entry": ("cache_corrupt",),
}


@dataclass(frozen=True)
class ChaosConfig:
    """One campaign's knobs (fully determined by these + the seed)."""

    seed: int = 0
    requests: int = 60
    concurrency: int = 6
    workers: int = 2
    designs: int = 3
    faults: Dict[str, float] = field(default_factory=dict)
    deadline_s: float = 30.0
    recovery_timeout_s: float = 20.0
    availability_floor: float = 0.99
    #: every Nth request posts raw Verilog source (elaboration + disk cache
    #: + STA kernel path); every Mth runs a what-if sweep.
    raw_source_every: int = 5
    whatif_every: int = 9
    hang_timeout_s: float = 1.0
    backoff_max_s: float = 0.5


@dataclass
class ChaosResult:
    """Outcome + evidence of one campaign."""

    config: ChaosConfig
    requests: int = 0
    accepted: int = 0
    shed: int = 0
    correct: int = 0
    wrong: int = 0
    failed: int = 0
    availability: float = 1.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    recovery_s: float = 0.0
    campaign_s: float = 0.0
    ladder: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config.seed,
            "faults": dict(self.config.faults),
            "requests": self.requests,
            "accepted": self.accepted,
            "shed": self.shed,
            "correct": self.correct,
            "wrong": self.wrong,
            "failed": self.failed,
            "availability": round(self.availability, 6),
            "latency_p50_s": round(self.p50_s, 6),
            "latency_p95_s": round(self.p95_s, 6),
            "latency_p99_s": round(self.p99_s, 6),
            "recovery_s": round(self.recovery_s, 6),
            "campaign_s": round(self.campaign_s, 6),
            "ladder": dict(self.ladder),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _canonical_prediction(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Strip the wall-clock-only fields from a /predict response."""
    canonical = dict(payload)
    canonical.pop("runtime_seconds", None)
    canonical.pop("serve", None)
    return canonical


class _Client:
    """One worker thread's HTTP client (its own keep-alive connection)."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, payload: Dict[str, Any]):
        body = json.dumps(payload).encode()
        for attempt in (0, 1):  # one transparent reconnect for torn keep-alive
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(
                    "POST", path, body=body, headers={"Content-Type": "application/json"}
                )
                response = self._conn.getresponse()
                data = json.loads(response.read())
                if response.will_close:
                    self._conn.close()
                    self._conn = None
                return response.status, data
            except (OSError, http.client.HTTPException, json.JSONDecodeError):
                try:
                    self._conn.close()
                except Exception:
                    pass
                self._conn = None
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self._conn is not None:
            with contextlib.suppress(Exception):
                self._conn.close()
            self._conn = None


def _default_records_and_timer(config: ChaosConfig):
    """Build the campaign's design set and a small fitted timer (cached)."""
    from repro.core import build_dataset
    from repro.core.pipeline import RTLTimer, RTLTimerConfig
    from repro.core.bitwise import BitwiseConfig
    from repro.core.overall import OverallConfig
    from repro.core.signalwise import SignalwiseConfig
    from repro.hdl.generate import BENCHMARK_SPECS

    specs = BENCHMARK_SPECS[: max(config.designs, 2)]
    records = build_dataset(specs)
    timer_config = RTLTimerConfig(
        bitwise=BitwiseConfig(
            n_estimators=10, max_depth=4, max_train_endpoints_per_design=40
        ),
        signalwise=SignalwiseConfig(n_estimators=10, ranker_estimators=10),
        overall=OverallConfig(n_estimators=8),
    )
    return records, RTLTimer(timer_config).fit(records)


def run_campaign(
    config: ChaosConfig,
    records=None,
    timer=None,
    report: Optional[report_mod.RuntimeReport] = None,
) -> ChaosResult:
    """Run one chaos campaign; returns its :class:`ChaosResult`.

    ``records``/``timer`` can be injected (tests reuse tiny fixtures); by
    default a small benchmark subset is built and a fast timer fitted.
    The campaign mutates ``REPRO_FAULT_INJECT`` and ``REPRO_CACHE_DIR`` for
    its duration and restores both.
    """
    result = ChaosResult(config=config)
    report = report if report is not None else report_mod.RuntimeReport()
    if records is None or timer is None:
        records, timer = _default_records_and_timer(config)
    records = list(records)[: max(config.designs, 1)]

    # Healthy oracle, computed before any fault is armed.
    predict_oracle = {
        record.name: _canonical_prediction(prediction_to_json(timer.predict(record)))
        for record in records
    }
    whatif_k = 2
    whatif_oracle = {
        record.name: whatif_to_json(record, timer.what_if(record, k=whatif_k))
        for record in records
    }

    saved_env = {
        name: os.environ.get(name) for name in (FAULT_ENV_VAR, CACHE_DIR_ENV_VAR)
    }
    campaign_started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-cache-") as cache_dir:
        try:
            # An isolated disk cache: corruption chaos must never eat the
            # user's real artifact cache, and a cold cache makes the
            # raw-source path deterministic (first build stores, later
            # reads draw the corruption fault).
            os.environ[CACHE_DIR_ENV_VAR] = cache_dir
            reset_draws()
            if config.faults:
                os.environ[FAULT_ENV_VAR] = format_faults(config.faults, seed=config.seed)
            else:
                os.environ.pop(FAULT_ENV_VAR, None)

            service = PooledTimingService(
                timer,
                config=ServeConfig(
                    deadline_s=config.deadline_s,
                    # Keep the in-memory record LRU smaller than the design
                    # rotation so raw-source requests keep hitting the disk
                    # cache (where corruption faults live).  It also sizes
                    # the pool workers' record LRUs, so a change of design
                    # evicts there too.
                    record_cache_entries=1,
                ),
                report=report,
                pool_config=PoolConfig(
                    workers=config.workers,
                    hang_timeout_s=config.hang_timeout_s,
                    backoff_base_s=0.05,
                    backoff_max_s=config.backoff_max_s,
                ),
            )
            server = start_server(service, port=0)
            for record in records:
                server.register_record(record)
            host, port = server.server_address
            try:
                _drive_traffic(config, records, predict_oracle, whatif_oracle,
                               whatif_k, host, port, result)
                _directed_sweep(
                    config, records, predict_oracle, report, host, port, result
                )
                # Recovery: disarm faults (no worker draws one from here
                # on) and measure how long until every design answers
                # correctly again.
                os.environ.pop(FAULT_ENV_VAR, None)
                result.recovery_s = _measure_recovery(
                    config, records, predict_oracle, host, port, result
                )
            finally:
                server.shutdown()
                service.close()
        finally:
            for name, value in saved_env.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    result.campaign_s = time.perf_counter() - campaign_started
    _finalize(config, report, result)
    return result


def _drive_traffic(
    config: ChaosConfig,
    records,
    predict_oracle: Dict[str, Dict[str, Any]],
    whatif_oracle: Dict[str, Dict[str, Any]],
    whatif_k: int,
    host: str,
    port: int,
    result: ChaosResult,
) -> None:
    lock = threading.Lock()
    latencies: List[float] = []
    counter = iter(range(config.requests))

    def next_index() -> Optional[int]:
        with lock:
            return next(counter, None)

    def run_client() -> None:
        client = _Client(host, port, timeout=config.deadline_s + 10.0)
        try:
            while (index := next_index()) is not None:
                record = records[index % len(records)]
                if config.whatif_every and index % config.whatif_every == config.whatif_every - 1:
                    path, payload = "/whatif", {"name": record.name, "k": whatif_k}
                    oracle = whatif_oracle[record.name]
                    canon = dict
                elif config.raw_source_every and index % config.raw_source_every == config.raw_source_every - 1:
                    path = "/predict"
                    payload = {"source": record.source, "name": record.name}
                    oracle = predict_oracle[record.name]
                    canon = _canonical_prediction
                else:
                    path, payload = "/predict", {"name": record.name}
                    oracle = predict_oracle[record.name]
                    canon = _canonical_prediction
                started = time.perf_counter()
                try:
                    status, body = client.post(path, payload)
                except Exception as exc:
                    with lock:
                        result.requests += 1
                        result.accepted += 1
                        result.failed += 1
                        result.violations.append(
                            f"request {index} ({path}) transport failure: {exc!r}"
                        )
                    continue
                elapsed = time.perf_counter() - started
                with lock:
                    result.requests += 1
                    if status == 429:
                        result.shed += 1
                        continue
                    result.accepted += 1
                    latencies.append(elapsed)
                    if status != 200:
                        result.failed += 1
                        result.violations.append(
                            f"request {index} ({path}) lost: HTTP {status} {body.get('error')!r}"
                        )
                    elif canon(body) == oracle:
                        result.correct += 1
                    else:
                        result.wrong += 1
                        result.violations.append(
                            f"request {index} ({path}) WRONG ANSWER for {record.name}"
                        )
        finally:
            client.close()

    threads = [
        threading.Thread(target=run_client, name=f"chaos-client-{i}", daemon=True)
        for i in range(max(config.concurrency, 1))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    latencies.sort()
    if latencies:
        result.p50_s = _percentile(latencies, 0.50)
        result.p95_s = _percentile(latencies, 0.95)
        result.p99_s = _percentile(latencies, 0.99)


def _directed_sweep(
    config: ChaosConfig,
    records,
    predict_oracle: Dict[str, Dict[str, Any]],
    report: report_mod.RuntimeReport,
    host: str,
    port: int,
    result: ChaosResult,
) -> None:
    """Arm each configured fault alone at p=1 and drive traffic shaped to hit it.

    The probabilistic phase is faithful chaos but can leave a low-probability
    fault undrawn on some seeds; this sweep makes "every recovery path
    exercised" hold deterministically.  Requests here obey the same
    invariants as the main phase — every answer is still checked against the
    healthy oracle.
    """

    def evidenced(fault: str) -> bool:
        counters = dict(report.counters)
        evidence = FAULT_EVIDENCE.get(fault, ())
        return not evidence or any(counters.get(name, 0) > 0 for name in evidence)

    def check(index_tag: str, record, status: int, body: Dict[str, Any]) -> None:
        result.requests += 1
        if status == 429:
            result.shed += 1
            return
        result.accepted += 1
        if status != 200:
            result.failed += 1
            result.violations.append(
                f"directed {index_tag} lost: HTTP {status} {body.get('error')!r}"
            )
        elif _canonical_prediction(body) == predict_oracle[record.name]:
            result.correct += 1
        else:
            result.wrong += 1
            result.violations.append(
                f"directed {index_tag} WRONG ANSWER for {record.name}"
            )

    client = _Client(host, port, timeout=config.deadline_s + 10.0)
    try:
        for fault in config.faults:
            if evidenced(fault):
                continue
            os.environ[FAULT_ENV_VAR] = format_faults({fault: 1.0}, seed=config.seed)
            for attempt in range(6):
                if fault == "cache.corrupt_entry":
                    # Two raw-source posts per design: the first stores the
                    # built record in the (cold or evicted) disk cache, the
                    # second reads it back through the corruption hook.
                    for record in records:
                        for _ in range(2):
                            status, body = client.post(
                                "/predict",
                                {"source": record.source, "name": record.name},
                            )
                            check(f"{fault}[{attempt}]", record, status, body)
                else:  # worker.crash / worker.hang / worker.slow_io
                    record = records[attempt % len(records)]
                    status, body = client.post("/predict", {"name": record.name})
                    check(f"{fault}[{attempt}]", record, status, body)
                if evidenced(fault):
                    break
    finally:
        client.close()
        if config.faults:
            os.environ[FAULT_ENV_VAR] = format_faults(config.faults, seed=config.seed)


def _measure_recovery(
    config: ChaosConfig,
    records,
    predict_oracle: Dict[str, Dict[str, Any]],
    host: str,
    port: int,
    result: ChaosResult,
) -> float:
    """Seconds until every design answers correctly again (faults cleared)."""
    client = _Client(host, port, timeout=config.deadline_s + 10.0)
    started = time.perf_counter()
    deadline = started + config.recovery_timeout_s
    try:
        while True:
            healthy = True
            for record in records:
                try:
                    status, body = client.post("/predict", {"name": record.name})
                except Exception:
                    healthy = False
                    break
                if status != 200 or _canonical_prediction(body) != predict_oracle[record.name]:
                    healthy = False
                    break
            if healthy:
                return time.perf_counter() - started
            if time.perf_counter() > deadline:
                result.violations.append(
                    f"no recovery within {config.recovery_timeout_s:g}s of clearing faults"
                )
                return time.perf_counter() - started
            time.sleep(0.1)
    finally:
        client.close()


def _finalize(
    config: ChaosConfig, report: report_mod.RuntimeReport, result: ChaosResult
) -> None:
    """Invariant checks + stage/counter publication."""
    result.availability = (
        result.correct / result.accepted if result.accepted else 1.0
    )
    counters = dict(report.counters)
    result.ladder = {
        name: counters.get(name, 0)
        for name in (
            "serve_worker_restarts",
            "serve_worker_hangs",
            "serve_request_retries",
            "serve_pool_poisoned",
            "cache_corrupt",
        )
    }
    if result.wrong:
        result.violations.append(f"{result.wrong} wrong answers (invariant: zero)")
    if result.failed:
        result.violations.append(
            f"{result.failed} accepted requests lost (invariant: zero)"
        )
    if result.availability < config.availability_floor:
        result.violations.append(
            f"availability {result.availability:.4f} below floor "
            f"{config.availability_floor:g}"
        )
    for fault in config.faults:
        for counter in FAULT_EVIDENCE.get(fault, ()):
            if counters.get(counter, 0) > 0:
                break
        else:
            if FAULT_EVIDENCE.get(fault):
                result.violations.append(
                    f"fault {fault!r} left no evidence (expected one of "
                    f"{list(FAULT_EVIDENCE[fault])} to move)"
                )
    # Deduplicate repeated per-request violation lines (keep order).
    result.violations = list(dict.fromkeys(result.violations))

    report.stages[CAMPAIGN_STAGE] = result.campaign_s
    report.stage_calls[CAMPAIGN_STAGE] = 1
    for stage, value in (
        (P50_STAGE, result.p50_s),
        (P95_STAGE, result.p95_s),
        (P99_STAGE, result.p99_s),
        (RECOVERY_STAGE, result.recovery_s),
        (AVAILABILITY_STAGE, result.availability),
    ):
        report.stages[stage] = value
        report.stage_calls[stage] = 1
    report.incr("chaos_requests", result.requests)
    report.incr("chaos_accepted", result.accepted)
    report.incr("chaos_shed", result.shed)
    report.incr("chaos_correct", result.correct)
    report.incr("chaos_wrong", result.wrong)
    report.incr("chaos_failed", result.failed)


def write_bundle(result: ChaosResult, directory: os.PathLike) -> Path:
    """Persist a replayable campaign bundle; returns its path."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    bundle = {
        "schema": CHAOS_BUNDLE_SCHEMA,
        "replay": {
            "seed": result.config.seed,
            "requests": result.config.requests,
            "concurrency": result.config.concurrency,
            "workers": result.config.workers,
            "designs": result.config.designs,
            "faults": dict(result.config.faults),
        },
        "result": result.to_dict(),
    }
    destination = path / f"chaos-seed{result.config.seed}.json"
    destination.write_text(json.dumps(bundle, indent=2) + "\n")
    return destination


def _parse_fault_arg(raw: Optional[str]) -> Dict[str, float]:
    if raw is None:
        return dict(DEFAULT_FAULTS)
    if raw in ("", "none"):
        return {}
    faults: Dict[str, float] = {}
    for entry in raw.split(","):
        name, _, probability = entry.strip().partition("=")
        if name not in FAULT_REGISTRY:
            raise SystemExit(
                f"unknown fault {name!r}; known: {', '.join(sorted(FAULT_REGISTRY))}"
            )
        faults[name] = float(probability) if probability else 1.0
    return faults


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Seed-replayable fault-injection campaign against the serving stack.",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument("--requests", type=int, default=60, help="requests to drive (default 60)")
    parser.add_argument("--concurrency", type=int, default=6, help="client threads (default 6)")
    parser.add_argument("--workers", type=int, default=2, help="pool workers (default 2)")
    parser.add_argument("--designs", type=int, default=3, help="designs in the traffic mix (default 3)")
    parser.add_argument(
        "--faults",
        default=None,
        help="fault mix name=prob,... ('none' for a fault-free baseline; "
        "default: the standard mix covering every recovery path)",
    )
    parser.add_argument("--deadline", type=float, default=30.0, help="per-request deadline seconds")
    parser.add_argument(
        "--recovery-timeout", type=float, default=20.0, help="recovery bound seconds (default 20)"
    )
    parser.add_argument(
        "--availability-floor", type=float, default=0.99, help="minimum accepted-traffic availability"
    )
    parser.add_argument("--artifacts", default=None, help="directory for failing-campaign bundles")
    parser.add_argument("--bench-out", default=None, help="write a BENCH_runtime.json report here")
    args = parser.parse_args(argv)

    config = ChaosConfig(
        seed=args.seed,
        requests=args.requests,
        concurrency=args.concurrency,
        workers=args.workers,
        designs=args.designs,
        faults=_parse_fault_arg(args.faults),
        deadline_s=args.deadline,
        recovery_timeout_s=args.recovery_timeout,
        availability_floor=args.availability_floor,
    )
    report = report_mod.RuntimeReport(
        meta={"command": "chaos", "seed": config.seed, "faults": dict(config.faults)}
    )
    result = run_campaign(config, report=report)
    print(json.dumps(result.to_dict(), indent=2))
    if args.bench_out:
        destination = report.write(args.bench_out)
        print(f"runtime report: {destination}", file=sys.stderr)
    if not result.ok:
        directory = args.artifacts or "chaos-artifacts"
        bundle = write_bundle(result, directory)
        print(f"campaign FAILED; replay bundle: {bundle}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

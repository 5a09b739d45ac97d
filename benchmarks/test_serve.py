"""Serve-throughput benchmark: registry round-trip + batched service stages.

Measures the production path this repo's north star cares about — train
once, serve many — on the benchmark suite: a fitted RTL-Timer is registered
and reloaded through the model registry (bit-identity asserted), then a
:class:`~repro.serve.service.TimingService` answers a concurrent burst of
predict requests.  The service's ``serve.*`` stages (``serve.predict_batch``
wall time, ``serve.predict_p50`` request latency) and counters
(``serve_requests`` / ``serve_batches`` -> the derived ``serve_batch_size``)
are merged into the session report, so the CI benchmark-trend artifact
(``BENCH_runtime.json``) tracks serving throughput per commit next to the
training and incremental-engine stages.
"""

from __future__ import annotations

import threading

from benchmarks.conftest import FAST_CONFIG, print_table
from repro.core import RTLTimer
from repro.serve import ModelRegistry, ServeConfig, TimingService


def test_serve_throughput(dataset_records, runtime_report, tmp_path, benchmark):
    train = dataset_records[:8]
    serve_set = dataset_records[8:16]

    with runtime_report.stage("serve.train"):
        timer = RTLTimer(FAST_CONFIG).fit(train)

    # Registry round-trip: what the service loads is bit-identical to the
    # freshly fitted model.
    registry = ModelRegistry(tmp_path / "models")
    registry.save(timer, "bench")
    served_timer = registry.load("bench")
    reference = timer.predict(serve_set[0])
    reloaded = served_timer.predict(serve_set[0])
    assert reloaded.overall == reference.overall
    assert reloaded.signal_ranking == reference.signal_ranking

    service = TimingService(
        served_timer,
        ServeConfig(max_batch=8),
        report=runtime_report,
    )
    try:
        requests = serve_set * 2  # 16 requests over 8 designs
        results = [None] * len(requests)
        barrier = threading.Barrier(len(requests))

        def run(index):
            barrier.wait()
            results[index] = service.predict(requests[index])

        def burst():
            barrier.reset()
            threads = [
                threading.Thread(target=run, args=(index,)) for index in range(len(requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        benchmark.pedantic(burst, rounds=1, iterations=1)

        # Served results match serial inference (spot-check one design).
        serial = served_timer.predict(serve_set[0])
        assert results[0].overall == serial.overall
        assert results[0].signal_slack == serial.signal_slack

        requests_count = runtime_report.counters.get("serve_requests", 0)
        batches = runtime_report.counters.get("serve_batches", 0)
        assert requests_count >= len(requests)
        assert batches < requests_count, "batching never fused a request"

        metrics = service.metrics()["serving"]
        rows = [
            ["requests", requests_count],
            ["model passes (batches)", batches],
            ["mean batch size", f"{metrics['batch_size']:.2f}"],
            ["predict p50 (s)", f"{metrics['predict_p50']:.4f}"],
            ["predict p95 (s)", f"{metrics['predict_p95']:.4f}"],
        ]
        print_table("Serve throughput (batched TimingService)", ["Quantity", "Value"], rows)
    finally:
        service.close()

    # Fold the latency percentiles into the session report: BENCH_runtime.json
    # gains serve.predict_p50 next to serve.predict_batch / serve.save_model.
    serve_report = service.runtime_report()
    runtime_report.stages.setdefault(
        "serve.predict_p50", serve_report.stages.get("serve.predict_p50", 0.0)
    )
    assert "serve.predict_batch" in runtime_report.stages
    assert "serve.save_model" in runtime_report.stages
    assert "serve.load_model" in runtime_report.stages

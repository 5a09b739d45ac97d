"""TimingService batching and the JSON-over-HTTP server."""

from __future__ import annotations

import http.client
import json
import pickle
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import RTLTimer
from repro.core.dataset import build_design_record
from repro.core.feature_cache import path_dataset_key
from repro.core.sampling import SamplingConfig
from repro.hdl.parser import ParseError
from repro.runtime.report import RuntimeReport
from repro.serve import ServeConfig, TimingService, start_server
from repro.serve.registry import ModelRegistry
from tests.conftest import hold_first_batch, queued_at_least
from tests.test_registry import TINY_TIMER_CONFIG


@pytest.fixture(scope="module")
def served_timer(tiny_records):
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4])


@pytest.fixture()
def service(served_timer):
    service = TimingService(served_timer, ServeConfig(max_batch=4))
    yield service
    service.close()


# ---------------------------------------------------------------------------
# TimingService
# ---------------------------------------------------------------------------


def test_concurrent_predicts_match_serial(served_timer, tiny_records, service):
    """N threads through the batched service == serial in-process predicts."""
    results = [None] * len(tiny_records)
    errors = []

    def run(index):
        try:
            results[index] = service.predict(tiny_records[index])
        except BaseException as exc:  # surfaced below as a test failure
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(tiny_records))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors

    for record, served in zip(tiny_records, results):
        serial = served_timer.predict(record)
        assert served.bitwise_arrival == serial.bitwise_arrival
        assert served.signal_arrival == serial.signal_arrival
        assert served.signal_ranking == serial.signal_ranking
        assert served.signal_slack == serial.signal_slack
        assert served.rank_group == serial.rank_group
        assert served.overall == serial.overall


def test_batching_counter_fires(served_timer, tiny_records, monkeypatch):
    """Requests queued while the batcher is busy share its next model pass."""
    hold_first_batch(monkeypatch, 4)
    service = TimingService(served_timer, ServeConfig(max_batch=4))
    barrier = threading.Barrier(4)
    stats = [None] * 4

    def run(index):
        barrier.wait()
        _, stats[index] = service.predict_with_stats(tiny_records[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        service.close()

    counters = service.report.counters
    assert counters["serve_requests"] == 4
    assert counters["serve_batches"] < 4, "no request shared a batch"
    assert counters.get("serve_batched_requests", 0) >= 2
    assert max(s["batch_size"] for s in stats) >= 2
    assert service.report.stages.get("serve.predict_batch", 0.0) > 0.0


def test_requests_above_max_batch_split(served_timer, tiny_records):
    service = TimingService(served_timer, ServeConfig(max_batch=2))
    try:
        barrier = threading.Barrier(5)
        results = [None] * 5

        def run(index):
            barrier.wait()
            results[index] = service.predict(tiny_records[index % len(tiny_records)])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result is not None for result in results)
        assert service.report.counters["serve_requests"] == 5
        assert service.report.counters["serve_batches"] >= 3  # ceil(5 / 2)
    finally:
        service.close()


def test_nonpositive_max_batch_is_clamped(served_timer, tiny_records):
    """max_batch=0 must not busy-spin the worker and hang every caller."""
    service = TimingService(served_timer, ServeConfig(max_batch=0))
    try:
        prediction = service.predict(tiny_records[0])
        assert prediction.design == tiny_records[0].name
        assert service.report.counters["serve_batches"] == 1
    finally:
        service.close()


def test_predict_after_close_raises(served_timer, tiny_records):
    service = TimingService(served_timer, ServeConfig())
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.predict(tiny_records[0])


def test_whatif_through_service(served_timer, tiny_records, service):
    estimates = service.what_if(tiny_records[4], k=4)
    direct = served_timer.what_if(
        tiny_records[4], prediction=served_timer.predict(tiny_records[4]), k=4
    )
    assert [e.wns for e in estimates] == [e.wns for e in direct]
    assert [e.tns for e in estimates] == [e.tns for e in direct]
    assert service.report.counters["serve_whatif_requests"] == 1
    assert service.report.stages["serve.whatif"] > 0.0


def test_concurrent_whatifs_on_one_record_match_serial(served_timer, tiny_records):
    """/whatif takes no lock: four sweeps of one record at once equal one serial sweep."""
    service = TimingService(served_timer, ServeConfig(max_batch=4, whatif_concurrency=4))
    record = tiny_records[4]
    try:
        serial = [(e.wns, e.tns, e.n_patches, e.stats) for e in service.what_if(record, k=8)]
        start = threading.Barrier(4)
        results, errors = [None] * 4, []

        def run(index):
            try:
                start.wait()
                results[index] = [
                    (e.wns, e.tns, e.n_patches, e.stats) for e in service.what_if(record, k=8)
                ]
            except BaseException as exc:  # surfaced below as a test failure
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        service.close()
    assert not errors
    assert results == [serial] * 4


def test_runtime_report_has_serve_stages(served_timer, tiny_records, service):
    service.predict(tiny_records[0])
    service.predict(tiny_records[1])
    report = service.runtime_report()
    assert report.stages["serve.predict_p50"] > 0.0
    assert report.counters["serve_requests"] == 2
    derived = report.to_dict()["derived"]
    assert derived["serve_batch_size"] >= 1.0


def test_service_record_cache(served_timer, simple_source, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    service = TimingService(served_timer)
    try:
        first = service.record_for_source(simple_source, name="simple")
        second = service.record_for_source(simple_source, name="simple")
        assert second is first  # in-process cache
        assert service.report.counters.get("serve_record_hits", 0) == 1
    finally:
        service.close()


def test_served_records_carry_their_build_key(served_timer, simple_source, tmp_path, monkeypatch):
    """Feature-cache keys of served records never pickle the record, here or in a worker."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def refuse(record):
        raise AssertionError("a served record was fingerprinted by pickling")

    monkeypatch.setattr("repro.runtime.cache.record_fingerprint", refuse)
    sampling = SamplingConfig()
    # First a fresh build, then a second service loading it from the artifact cache.
    for _ in range(2):
        service = TimingService(served_timer)
        try:
            record = service.record_for_source(simple_source, name="simple")
            key = path_dataset_key(record, "sog", sampling, None)
            shipped = pickle.loads(pickle.dumps(record))  # what a pool worker receives
            assert path_dataset_key(shipped, "sog", sampling, None) == key
            assert served_timer.predict(record).signal_arrival
        finally:
            service.close()


def test_served_records_keep_to_the_cache_budget(
    served_timer, simple_source, simple_record, tmp_path, monkeypatch
):
    """Records stored by a server are pruned to REPRO_CACHE_MAX_MB; bundles never are."""
    monkeypatch.setattr("repro.runtime.cache.PRUNE_EVERY", 1)
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    service = TimingService(served_timer)
    try:
        for index in range(3):
            service.record_for_source(simple_source, name=f"design{index}")
    finally:
        service.close()
    assert len(list(cache_dir.glob("[0-9a-f][0-9a-f]/*.pkl"))) <= 1

    registry = ModelRegistry(tmp_path / "models")
    manifests = [registry.save(served_timer, name) for name in ("first", "second")]
    registry.save(served_timer, "first", metadata={"note": "stored again"})
    for manifest in manifests:
        assert registry.cache.path_for(manifest["bundle_id"]).exists()
    assert registry.load("second").predict(simple_record).signal_arrival


def test_malformed_sources_build_once_and_leave_healthy_requests_alone(
    served_timer, simple_source, tmp_path, monkeypatch
):
    """A parse error surfaces after one build and never slows later requests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    calls = []

    def counting_build(source, name=None):
        calls.append(name)
        return build_design_record(source, name=name)

    monkeypatch.setattr("repro.serve.service.build_design_record", counting_build)
    service = TimingService(served_timer)
    try:
        for index in range(4):
            source = simple_source.replace("endmodule", f"assign y = {index} +;\nendmodule")
            with pytest.raises(ParseError):
                service.record_for_source(source, name=f"bad{index}")
            assert calls == [f"bad{i}" for i in range(index + 1)]

        record = service.record_for_source(simple_source, name="simple")
        assert served_timer.predict(record).design == "simple"
        counters = service.report.counters
        assert not [
            name for name in counters if name.startswith(("serve_degraded_", "breaker_"))
        ], counters
    finally:
        service.close()


def test_bad_record_in_a_batch_fails_alone(served_timer, tiny_records, monkeypatch):
    """When a batched model pass raises, only the request that caused it fails."""
    records = tiny_records[:3]
    expected = {record.name: served_timer.predict(record) for record in records}
    bad_name = records[1].name
    real_predict = served_timer.bitwise.predict_with_critical

    def predict_or_fail(record):
        if record.name == bad_name:
            raise RuntimeError(f"cannot predict {record.name}")
        return real_predict(record)

    monkeypatch.setattr(served_timer.bitwise, "predict_with_critical", predict_or_fail)
    hold_first_batch(monkeypatch, len(records))
    service = TimingService(served_timer, ServeConfig(max_batch=3))
    try:
        barrier = threading.Barrier(len(records))
        results = {}

        def run(record):
            barrier.wait(timeout=30.0)
            try:
                results[record.name] = service.predict(record)
            except Exception as exc:
                results[record.name] = exc

        threads = [threading.Thread(target=run, args=(record,)) for record in records]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()

        assert service.report.counters["serve_batches"] == 1
        assert service.report.counters["serve_batched_requests"] == 3
        assert isinstance(results[bad_name], RuntimeError)
        for record in records:
            if record.name != bad_name:
                served, serial = results[record.name], expected[record.name]
                assert served.bitwise_arrival == serial.bitwise_arrival
                assert served.signal_slack == serial.signal_slack
                assert served.overall == serial.overall
    finally:
        service.close()


# ---------------------------------------------------------------------------
# HTTP server
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_server(served_timer, tiny_records):
    service = TimingService(served_timer, ServeConfig(max_batch=4))
    server = start_server(service, port=0)
    for record in tiny_records:
        server.register_record(record)
    yield server
    server.shutdown()
    service.close()


def _url(server, path):
    host, port = server.server_address
    return f"http://{host}:{port}{path}"


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as response:
        return json.loads(response.read())


def test_http_predict_bit_identical(http_server, served_timer, tiny_records):
    record = tiny_records[4]
    response = _post(http_server, "/predict", {"name": record.name})
    serial = served_timer.predict(record)
    assert response["design"] == record.name
    assert response["overall"] == {k: float(v) for k, v in serial.overall.items()}
    assert response["signal_slack"] == {k: float(v) for k, v in serial.signal_slack.items()}
    assert response["ranked_signals"] == serial.ranked_signals()
    assert response["serve"]["batch_size"] >= 1


def test_http_whatif(http_server, served_timer, tiny_records):
    record = tiny_records[4]
    response = _post(http_server, "/whatif", {"name": record.name, "k": 4})
    direct = served_timer.what_if(record, prediction=served_timer.predict(record), k=4)
    assert [c["wns"] for c in response["candidates"]] == [e.wns for e in direct]


def test_http_health_and_metrics(http_server):
    health = _get(http_server, "/health")
    assert health["status"] == "ok"
    # Bundle identity is always surfaced (None for an in-process fit with no
    # manifest); a registry-served promotion fills both fields in.
    assert "active_bundle_id" in health and health["active_bundle_id"] is None
    assert "eval_digest" in health and health["eval_digest"] is None
    assert "REPRO_SERVE_QUEUE_MAX" in health["settings"]
    _post(http_server, "/predict", {"name": http_server.service.timer.training_designs_[0]})
    metrics = _get(http_server, "/metrics")
    assert metrics["serving"]["requests"] >= 1
    assert "predict_p50" in metrics["serving"]
    assert "active_bundle_id" in metrics["serving"]


def test_http_error_paths(http_server, simple_source):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(http_server, "/nope")
    assert excinfo.value.code == 404

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(http_server, "/predict", {"name": "no-such-design"})
    assert excinfo.value.code == 404

    # Bytes that are not UTF-8 make json.loads raise UnicodeDecodeError, not
    # JSONDecodeError; both must get a 400, not a dropped connection.
    for body in (b"this is not json", b'{"source": "\xff"}'):
        request = urllib.request.Request(
            _url(http_server, "/predict"),
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == "request body is not valid JSON"

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(http_server, "/whatif", {"name": "whatever", "k": -3})
    assert excinfo.value.code in (400, 404)

    # A name must be a string: a list is unhashable, and an int 7 would share
    # the record cache key of the string "7".
    for path, payload in (
        ("/predict", {"name": ["x"]}),
        ("/predict", {"source": simple_source, "name": 7}),
        ("/whatif", {"name": ["x"]}),
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(http_server, path, payload)
        assert excinfo.value.code == 400
        assert "'name' must be a string" in json.loads(excinfo.value.read())["error"]

    # JSON true is a Python int, but not a candidate count.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(http_server, "/whatif", {"name": "whatever", "k": True})
    assert excinfo.value.code == 400
    assert "'k' must be a positive integer" in json.loads(excinfo.value.read())["error"]


def test_http_server_sockets_disable_nagle(http_server, monkeypatch):
    """Accepted sockets set TCP_NODELAY, so a response body sent after its
    headers never waits for the client's delayed ACK."""
    from repro.serve.http import TimingRequestHandler

    accepted = []
    setup = TimingRequestHandler.setup

    def record_setup(handler):
        setup(handler)
        accepted.append(handler.connection)

    monkeypatch.setattr(TimingRequestHandler, "setup", record_setup)
    host, port = http_server.server_address
    conn = http.client.HTTPConnection(host, port)
    try:
        conn.request("GET", "/health")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        # The keep-alive connection is still open on the server side.
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        conn.close()


def test_http_post_unknown_path_does_not_desync_keepalive(http_server):
    """A 404'd POST with an unread body must not poison the connection."""
    host, port = http_server.server_address
    conn = http.client.HTTPConnection(host, port)
    try:
        conn.request("POST", "/bogus", body=b'{"x": 1}', headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        # The server closes the connection instead of parsing the leftover
        # body bytes as the next request line; either the follow-up request
        # fails cleanly (closed) or — never — comes back as a 400 desync.
        try:
            conn.request("GET", "/health")
            status = conn.getresponse().status
        except (http.client.HTTPException, ConnectionError, BrokenPipeError):
            status = None
        assert status != 400
    finally:
        conn.close()
    assert _get(http_server, "/health")["status"] == "ok"


def test_record_cache_is_bounded(served_timer, simple_source):
    service = TimingService(served_timer, ServeConfig(record_cache_entries=1))
    try:
        first = service.record_for_source(simple_source, name="one")
        service.record_for_source(simple_source, name="two")
        assert len(service._record_cache) == 1  # LRU evicted the first entry
        again = service.record_for_source(simple_source, name="one")
        assert again is not first  # rebuilt (or disk-cache loaded), not leaked
    finally:
        service.close()


def test_http_source_payload(http_server, served_timer, simple_source):
    response = _post(http_server, "/predict", {"source": simple_source, "name": "simple"})
    record = http_server.service.record_for_source(simple_source, name="simple")
    serial = served_timer.predict(record)
    assert response["overall"] == {k: float(v) for k, v in serial.overall.items()}


def test_service_report_can_merge_into_session_report(served_timer, tiny_records):
    session = RuntimeReport()
    with TimingService(served_timer) as service:
        service.predict(tiny_records[0])
        session.merge(service.runtime_report())
    assert "serve.predict_batch" in session.stages
    assert "serve.predict_p50" in session.stages


# ---------------------------------------------------------------------------
# Resilience: body bounds, load shedding, deadlines, close() races
# ---------------------------------------------------------------------------


def test_http_oversized_body_rejected_with_413(http_server):
    from repro.serve.http import MAX_BODY_BYTES

    request = urllib.request.Request(
        _url(http_server, "/predict"),
        data=b"x" * 16,  # tiny actual body; the declared length is the bound
        headers={
            "Content-Type": "application/json",
            "Content-Length": str(MAX_BODY_BYTES + 1),
        },
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 413
    assert "error" in json.loads(excinfo.value.read())
    # The server stays healthy after refusing the body.
    assert _get(http_server, "/health")["status"] == "ok"


def test_http_chunked_body_rejected(http_server):
    host, port = http_server.server_address
    conn = http.client.HTTPConnection(host, port)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.putheader("Content-Type", "application/json")
        conn.endheaders()
        conn.send(b"5\r\n{\"a\":\r\n0\r\n\r\n")
        response = conn.getresponse()
        assert response.status == 413
    finally:
        conn.close()


def test_http_shed_request_gets_429_with_retry_after(served_timer, tiny_records):
    service = TimingService(
        served_timer,
        ServeConfig(queue_max=1, retry_after_s=2.5),
    )
    server = start_server(service, port=0)
    for record in tiny_records:
        server.register_record(record)
    try:
        # Occupy the single admission slot directly, then hit the server.
        slot = service.admission.admit("predict")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, "/predict", {"name": tiny_records[0].name})
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "2.5"
        finally:
            slot.__exit__(None, None, None)
        # Slot released: the same request is admitted and answered.
        response = _post(server, "/predict", {"name": tiny_records[0].name})
        assert response["design"] == tiny_records[0].name
        assert service.report.counters["serve_shed"] == 1
    finally:
        server.shutdown()
        service.close()


def test_http_expired_deadline_gets_504(served_timer, tiny_records):
    service = TimingService(served_timer, ServeConfig(deadline_s=1e-6))
    server = start_server(service, port=0)
    for record in tiny_records:
        server.register_record(record)
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/predict", {"name": tiny_records[0].name})
        assert excinfo.value.code == 504
        assert service.report.counters.get("serve_deadline_timeouts", 0) >= 1
    finally:
        server.shutdown()
        service.close()


def test_close_drains_inflight_requests(served_timer, tiny_records):
    """predicts racing close(): every caller gets a prediction or a clean
    'closed' error — nobody hangs, nothing is silently dropped."""
    for attempt in range(3):  # several interleavings of the race
        service = TimingService(served_timer, ServeConfig())
        outcomes = []
        barrier = threading.Barrier(5)

        def run(index):
            barrier.wait()
            try:
                outcomes.append(("ok", service.predict(tiny_records[index % 4])))
            except RuntimeError as exc:
                outcomes.append(("closed", exc))

        def closer():
            barrier.wait()
            service.close(drain=True, timeout=30.0)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=closer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), "a caller hung"
        assert len(outcomes) == 4
        for kind, value in outcomes:
            if kind == "ok":
                assert value.design in {r.name for r in tiny_records}
            else:
                assert "closed" in str(value)
        service.close()  # idempotent


def test_close_without_drain_aborts_queued_requests(served_timer, tiny_records, monkeypatch):
    # The batcher waits for a second request that never comes, so the first
    # is still queued when close(drain=False) runs.
    hold_first_batch(monkeypatch, 2)
    service = TimingService(served_timer, ServeConfig())
    errors = []

    def run():
        try:
            service.predict(tiny_records[0])
            errors.append(None)
        except RuntimeError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    assert queued_at_least(service, 1, timeout=10.0)
    service.close(drain=False, timeout=10.0)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert len(errors) == 1  # answered either way; an abort error is legal
    assert isinstance(errors[0], RuntimeError) and "closed" in str(errors[0])

"""Stdlib JSON-over-HTTP front end for :class:`TimingService`.

No web framework is available in this environment, so the server is built
on :mod:`http.server`'s ``ThreadingHTTPServer`` — one thread per connection,
which is exactly what feeds the service's batching queue.  Accepted sockets
set ``TCP_NODELAY``, so no response waits out a delayed ACK.  Endpoints:

``POST /predict``
    ``{"source": <verilog>, "name": <design name>}`` → the full fine-grained
    prediction (overall WNS/TNS, per-signal slack/ranking/groups) plus
    per-request serving stats.  Pre-built records can be referenced by
    registering them on the server (used by the benchmark harness).

``POST /whatif``
    Same payload plus optional ``"k"`` → incremental what-if projections of
    candidate synthesis option sets (no re-synthesis).

``GET /health``
    Liveness + the manifest of the served model bundle, with the active
    bundle id and promotion eval digest surfaced at the top level (so a
    canary promotion is observable with one probe), plus every effective
    ``REPRO_*`` setting (:func:`repro.settings.snapshot`).

``GET /metrics``
    The service's :class:`~repro.runtime.report.RuntimeReport` snapshot with
    latency percentiles and realized batch size.

Responses are always JSON; errors use conventional status codes with an
``{"error": ...}`` body.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from repro import settings
from repro.core.pipeline import RTLTimerPrediction
from repro.serve.resilience import DeadlineExceeded, RejectedError, WorkerUnavailable
from repro.serve.service import TimingService

#: Maximum accepted request body (a Verilog source payload), in bytes.
MAX_BODY_BYTES = 4 * 1024 * 1024


def prediction_to_json(prediction: RTLTimerPrediction) -> Dict[str, Any]:
    """The JSON shape of one prediction (stable across server and client)."""
    return {
        "design": prediction.design,
        "overall": {key: float(value) for key, value in prediction.overall.items()},
        "signal_arrival": {k: float(v) for k, v in prediction.signal_arrival.items()},
        "signal_slack": {k: float(v) for k, v in prediction.signal_slack.items()},
        "signal_ranking": {k: float(v) for k, v in prediction.signal_ranking.items()},
        "rank_group": {k: int(v) for k, v in prediction.rank_group.items()},
        "ranked_signals": prediction.ranked_signals(),
        "runtime_seconds": float(prediction.runtime_seconds),
    }


def whatif_to_json(record, estimates) -> Dict[str, Any]:
    """The JSON shape of one ``/whatif`` answer: the record's candidates in order."""
    return {
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


class TimingRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the server's :class:`TimingService`."""

    server: "TimingHTTPServer"
    protocol_version = "HTTP/1.1"
    # A response goes out as two writes (headers, then body).  With Nagle's
    # algorithm on, the body waits for the ACK of the headers, which a
    # keep-alive client delays by ~40 ms (RFC 896, RFC 1122 4.2.3.2).
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        payload: Dict[str, Any],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_json({"error": message}, status=status, headers=headers)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            # No Content-Length means no upfront bound; accepting the frames
            # would mean reading unbounded input into memory.
            self.close_connection = True
            self._send_error_json(413, "chunked request bodies are not accepted")
            return None
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            # The body was never read, so this keep-alive connection is
            # desynced — close it instead of parsing body bytes as the next
            # request line.
            self.close_connection = True
            self._send_error_json(400, "bad Content-Length header")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} byte cap"
            )
            return None
        if length <= 0:
            self.close_connection = True
            self._send_error_json(400, "request body must not be empty")
            return None
        try:
            payload = json.loads(self.rfile.read(length))
        except (OSError, ValueError):  # ValueError: bad JSON or not UTF-8
            self._send_error_json(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return payload

    def _record_from(self, payload: Dict[str, Any]):
        """Resolve the design a request refers to (source text or registered name)."""
        service = self.server.service
        name = payload.get("name")
        source = payload.get("source")
        if name is not None and not isinstance(name, str):
            self._send_error_json(400, "'name' must be a string")
            return None
        if source is not None:
            if not isinstance(source, str):
                self._send_error_json(400, "'source' must be a Verilog source string")
                return None
            return service.record_for_source(source, name=name)
        if name is not None:
            record = self.server.registered_records.get(name)
            if record is not None:
                return record
            self._send_error_json(404, f"no registered design named {name!r}")
            return None
        self._send_error_json(400, "request must carry 'source' (and optionally 'name')")
        return None

    # -- endpoints ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/health":
                service = self.server.service
                self._send_json(
                    {
                        "status": "ok",
                        "model": service.manifest or {},
                        "active_bundle_id": service.active_bundle_id,
                        "eval_digest": service.eval_digest,
                        "uptime_seconds": round(
                            service.metrics()["serving"]["uptime_seconds"], 3
                        ),
                        "settings": settings.snapshot(),
                    }
                )
            elif self.path == "/metrics":
                self._send_json(self.server.service.metrics())
            else:
                self._send_error_json(404, f"unknown endpoint {self.path!r}")
        except Exception as exc:  # a racing scrape must get JSON, not a reset
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path not in ("/predict", "/whatif"):
            # The unread body would desync this keep-alive connection.
            self.close_connection = True
            self._send_error_json(404, f"unknown endpoint {self.path!r}")
            return
        payload = self._read_body()
        if payload is None:
            return
        k = payload.get("k")
        if self.path == "/whatif" and k is not None and (
            isinstance(k, bool) or not isinstance(k, int) or k < 1
        ):
            self._send_error_json(400, "'k' must be a positive integer")
            return
        try:
            record = self._record_from(payload)
            if record is None:
                return
            if self.path == "/predict":
                prediction, stats = self.server.service.predict_with_stats(record)
                response = prediction_to_json(prediction)
                response["serve"] = stats
            else:
                response = whatif_to_json(record, self.server.service.what_if(record, k=k))
            self._send_json(response)
        except RejectedError as exc:  # load shed: bounded queue said no
            self._send_error_json(
                429, str(exc), headers={"Retry-After": f"{exc.retry_after_s:g}"}
            )
        except DeadlineExceeded as exc:
            self._send_error_json(504, str(exc) or "request deadline expired")
        except WorkerUnavailable as exc:
            self._send_error_json(503, str(exc) or "no serving worker available")
        except Exception as exc:  # a broken request must not kill the thread
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")


class TimingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`TimingService`."""

    daemon_threads = True

    def __init__(
        self,
        service: TimingService,
        host: str = "127.0.0.1",
        port: int = 8421,
        verbose: bool = False,
    ):
        super().__init__((host, port), TimingRequestHandler)
        self.service = service
        self.verbose = verbose
        #: Pre-elaborated records addressable by name in request payloads
        #: (lets benchmarks and tests skip per-request elaboration).
        self.registered_records: Dict[str, Any] = {}

    def register_record(self, record) -> None:
        """Make a pre-built DesignRecord addressable as ``{"name": ...}``."""
        self.registered_records[record.name] = record


def start_server(
    service: TimingService,
    host: str = "127.0.0.1",
    port: int = 8421,
    verbose: bool = False,
):
    """Start a :class:`TimingHTTPServer` on a daemon thread; returns it.

    Use ``server.server_address`` for the bound ``(host, port)`` (pass
    ``port=0`` for an OS-assigned free port) and ``server.shutdown()`` to
    stop it.
    """
    server = TimingHTTPServer(service, host=host, port=port, verbose=verbose)
    thread = threading.Thread(target=server.serve_forever, name="timing-http", daemon=True)
    thread.start()
    return server

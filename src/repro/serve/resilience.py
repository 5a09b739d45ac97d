"""Resilience primitives for the serving runtime.

Everything the fault-tolerant serving stack shares lives here:

* :class:`Deadline` — absolute wall-clock request deadlines, propagated
  from the HTTP edge through the batching queue into pool workers so a
  request never outlives its client timeout;
* :class:`AdmissionController` — bounded admission with per-route
  concurrency limits; rejections carry a ``Retry-After`` hint and surface
  as HTTP 429 load shedding, never as queue growth;
* the error types the HTTP layer maps onto status codes
  (:class:`RejectedError`, :class:`DeadlineExceeded`,
  :class:`WorkerUnavailable`).

Recovery from worker crashes and hangs lives in
:mod:`repro.serve.supervisor`; a corrupt cache entry is deleted and
recomputed inside :meth:`repro.runtime.cache.ArtifactCache.get`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.runtime import report as report_mod

# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class RejectedError(RuntimeError):
    """The admission controller shed this request (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before a result was produced (HTTP 504)."""


class WorkerUnavailable(RuntimeError):
    """No pool worker could answer within the retry budget (HTTP 503)."""


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock deadline, safe to ship across processes.

    Wall clock (``time.time``) rather than the monotonic clock because pool
    workers are separate processes: the deadline must mean the same instant
    on both sides of the pipe (one host, one clock).
    """

    expires_at: float

    @classmethod
    def after(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """A deadline ``seconds`` from now; None stays None (no deadline)."""
        if seconds is None:
            return None
        return cls(expires_at=time.time() + max(float(seconds), 0.0))

    def remaining(self) -> float:
        """Seconds left (<= 0 means expired)."""
        return self.expires_at - time.time()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


def remaining_or_none(deadline: Optional[Deadline]) -> Optional[float]:
    """Wait-timeout for ``deadline``: its remaining seconds, or None."""
    if deadline is None:
        return None
    return max(deadline.remaining(), 0.0)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class AdmissionController:
    """Bounded admission with per-route concurrency limits.

    One global bound (``queue_max``) covers everything in flight or queued;
    per-route limits keep a heavy route (``whatif``) from starving a cheap
    one (``predict``).  Rejections raise :class:`RejectedError` immediately
    — the queue never grows past its bound, which is what keeps latency
    bounded under overload (shed early, answer fast).
    """

    def __init__(
        self,
        queue_max: int,
        route_limits: Optional[Dict[str, int]] = None,
        retry_after_s: float = 1.0,
        report: Optional[report_mod.RuntimeReport] = None,
    ):
        self.queue_max = max(queue_max, 1)
        self.route_limits = dict(route_limits or {})
        self.retry_after_s = retry_after_s
        self.report = report
        self._lock = threading.Lock()
        self._total = 0
        self._per_route: Dict[str, int] = {}

    def depth(self) -> int:
        with self._lock:
            return self._total

    def admit(self, route: str) -> "_Admission":
        """Admit one request on ``route`` or raise :class:`RejectedError`."""
        with self._lock:
            limit = self.route_limits.get(route)
            if self._total >= self.queue_max:
                reason = f"queue full ({self._total}/{self.queue_max})"
            elif limit is not None and self._per_route.get(route, 0) >= limit:
                reason = f"route {route!r} at concurrency limit ({limit})"
            else:
                self._total += 1
                self._per_route[route] = self._per_route.get(route, 0) + 1
                self._incr("serve_admitted")
                return _Admission(self, route)
        self._incr("serve_shed")
        self._incr(f"serve_shed_{route}")
        raise RejectedError(
            f"request shed: {reason}; retry after {self.retry_after_s:g}s",
            retry_after_s=self.retry_after_s,
        )

    def _release(self, route: str) -> None:
        with self._lock:
            self._total = max(self._total - 1, 0)
            self._per_route[route] = max(self._per_route.get(route, 0) - 1, 0)

    def _incr(self, counter: str) -> None:
        if self.report is not None:
            self.report.incr(counter)
        else:
            report_mod.incr(counter)


class _Admission:
    """Context manager releasing one admitted slot."""

    def __init__(self, controller: AdmissionController, route: str):
        self._controller = controller
        self._route = route

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info) -> None:
        self._controller._release(self._route)


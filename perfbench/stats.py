"""Arithmetic of the benchmark: percentiles, span self times, error accounting.

Everything here is pure (no I/O, no ``repro`` import) so the self-tests in
``test_stats.py`` can pin it down exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported percentile (choosing-metrics rule).
MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``p``."""
    return n > 0 and beyond(n, p) >= MIN_BEYOND


def tail_percentile(n: int, candidates: Iterable[float] = (99, 95, 90, 75)) -> Optional[float]:
    """Highest candidate percentile that ``n`` samples support, else None."""
    for p in sorted(candidates, reverse=True):
        if supported(n, p):
            return p
    return None


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------
#
# A span is a dict with keys ``id``, ``name``, ``start``, ``end``,
# ``parent`` (id of the same-thread enclosing span or None), ``req`` (the
# request id it belongs to, or None), ``served`` (ids of the spans it was
# done on behalf of, in other threads: a batch span lists the waiting
# predict spans of every request it served) and ``attrs``.
#
# Names in parentheses, such as ``(core.pipeline)``, are containers: glue
# code between layers.  Their self time is what no layer span covers.


def is_container(name: str) -> bool:
    return name.startswith("(")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = -math.inf
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are same-thread spans naming it as ``parent`` and cross-thread
    spans listing it in ``served``; child intervals are clipped to the
    parent's, and overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        links = list(span.get("served") or ())
        if span.get("parent") is not None:
            links.append(span["parent"])
        for parent in links:
            children[parent].append((span["start"], span["end"]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(a, start), min(b, end))
            for a, b in children.get(span["id"], ())
            if min(b, end) > max(a, start)
        ]
        result[span["id"]] = (end - start) - _union_length(clipped)
    return result


def span_requests(spans: Sequence[dict]) -> Dict[int, List[str]]:
    """The requests each span counts for.

    A span counts for its own ``req``.  A cross-thread batch span counts for
    every request it served (each waited for all of it), and so do its
    same-thread descendants.  Spans outside any request (server start-up,
    say) count for none.
    """
    by_id = {span["id"]: span for span in spans}
    found: Dict[int, List[str]] = {}
    for span in spans:
        chain = []
        current: Optional[dict] = span
        while current is not None and current["id"] not in found:
            chain.append(current)
            if current.get("req") is not None or current.get("served"):
                break
            parent = current.get("parent")
            current = by_id.get(parent) if parent is not None else None
        for link in reversed(chain):
            if link.get("req") is not None:
                reqs = [link["req"]]
            elif link.get("served"):
                reqs = list(dict.fromkeys(
                    by_id[s]["req"] for s in link["served"]
                    if s in by_id and by_id[s].get("req") is not None
                ))
            else:
                parent = link.get("parent")
                reqs = found.get(parent, []) if parent is not None else []
            found[link["id"]] = reqs
    return found


def request_layers(spans: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Per-request layer self times, from the requests' point of view.

    Each layer span's self time counts for every request in
    :func:`span_requests`.  Leaf spans of one layer that overlap — a batch
    waiting on several pool workers at once — count once, as the union of
    their intervals.  ``unattributed_s`` is the rest of the request's wall
    time (its root span): the self time of container glue.  A request's
    entries add up to its wall time.
    """
    selfs = self_times(spans)
    reqs = span_requests(spans)
    parents = {span.get("parent") for span in spans}
    parents.update(sid for span in spans for sid in span.get("served") or ())
    sums: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    leaves: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    walls: Dict[str, float] = {}
    for span in spans:
        if span.get("req") is not None and span.get("parent") is None:
            walls[span["req"]] = span["end"] - span["start"]
        if is_container(span["name"]):
            continue
        for req in reqs[span["id"]]:
            if span["id"] in parents:
                sums[req][span["name"]] += selfs[span["id"]]
            else:
                leaves[req][span["name"]].append((span["start"], span["end"]))
    table: Dict[str, Dict[str, float]] = {}
    for req in set(sums) | set(leaves) | set(walls):
        layers = dict(sums.get(req, {}))
        for name, intervals in leaves.get(req, {}).items():
            layers[name] = layers.get(name, 0.0) + _union_length(intervals)
        if req in walls:
            layers["unattributed_s"] = walls[req] - sum(layers.values())
        table[req] = layers
    return table


def layer_totals(spans: Sequence[dict]) -> Dict[str, float]:
    """Whole-process layer self times (for one-operation runs such as retrain)."""
    totals: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        key = "unattributed_s" if is_container(span["name"]) else span["name"]
        totals[key] += selfs[span["id"]]
    return dict(totals)


# ---------------------------------------------------------------------------
# Error accounting
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations of one run.

    An operation fails when its reply is not a 200, when its answer is
    wrong, or when the process it ran in exited non-zero; an operation that
    fails in several ways still counts once.
    """

    def __init__(self) -> None:
        self._attempted: List[str] = []
        self._failed: Dict[str, str] = {}

    def attempt(self, op_id: str) -> None:
        self._attempted.append(op_id)

    def fail(self, op_id: str, reason: str) -> None:
        if op_id not in self._attempted:
            raise KeyError(f"operation {op_id!r} was never attempted")
        self._failed.setdefault(op_id, reason)

    @property
    def attempted(self) -> int:
        return len(self._attempted)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def reasons(self, limit: int = 5) -> List[str]:
        return [f"{op}: {why}" for op, why in list(self._failed.items())[:limit]]

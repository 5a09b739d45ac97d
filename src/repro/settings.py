"""Every ``REPRO_*`` environment knob, declared, parsed and validated here.

This is the only module that reads ``os.environ`` for configuration.  Each
knob is declared once in :data:`KNOBS` (name, parser, default, one-line
doc) and read with :func:`get`:

* unset or empty means the declared default;
* a value that does not parse raises ``ValueError`` naming the knob and
  the value — there is no silent fallback;
* values are read per call, never cached, so a knob set after import (a
  test's ``monkeypatch.setenv``, the chaos campaign arming a fault, a pool
  worker inheriting its parent's environment) takes effect on the next read.

Process-wide knobs (caches, jobs, faults, directories) are read
with :func:`get` where they are used.  Knobs of a config dataclass
(``REPRO_SERVE_*``, ``REPRO_EVAL_*``, ``REPRO_OPT_*``) are bound to fields
with :func:`knob_field` and applied by :func:`configure`.
:func:`snapshot` returns every effective value; ``repro`` resolves it once
at startup (so a malformed knob fails fast) and records it in ``/health``
and every runtime report.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Dict, NamedTuple, Type, TypeVar

T = TypeVar("T")


class Knob(NamedTuple):
    """One environment knob."""

    name: str
    parse: Callable[[str], Any]
    default: Any
    doc: str


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("expected 0 or 1")
    return raw == "1"


class OneOf:
    """Parser of a knob that takes one of a fixed set of names."""

    def __init__(self, what: str, *choices: str):
        self.what = what
        self.choices = choices

    def __call__(self, raw: str) -> str:
        if raw not in self.choices:
            raise ValueError(f"unknown {self.what} {raw!r}; choose one of {self.choices}")
        return raw


#: Every knob, by name.  Defaults of ``None`` mean "derived elsewhere" and
#: the doc says from what.
KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        # -- runtime ----------------------------------------------------------
        Knob("REPRO_CACHE_DIR", str, None,
             "artifact-cache directory (unset: ~/.cache/repro)"),
        Knob("REPRO_CACHE", _flag, True,
             "0 disables the record, path-feature and synthesis disk caches"),
        Knob("REPRO_CACHE_MAX_MB", int, 2048,
             "artifact-cache size budget in MiB; the path-feature store gets 1/8 of it"),
        Knob("REPRO_JOBS", int, None,
             "dataset-build worker processes (unset: os.cpu_count(); 1 = serial)"),
        Knob("REPRO_BENCH_OUT", str, "BENCH_runtime.json", "where runtime reports are written"),
        Knob("REPRO_FAULT_INJECT", str, "",
             "fault injection: name[:p=<prob>][:seed=<seed>], comma-separated"),
        # -- serving ----------------------------------------------------------
        Knob("REPRO_MODEL_DIR", str, None,
             "model-bundle registry root (unset: <cache dir>/models)"),
        Knob("REPRO_SERVE_QUEUE_MAX", int, 128,
             "admission bound on queued + in-flight requests; above it requests shed with 429"),
        Knob("REPRO_SERVE_DEADLINE_S", float, None,
             "default per-request deadline in seconds (unset: none); expired requests answer 504"),
        Knob("REPRO_SERVE_RETRY_AFTER_S", float, 1.0,
             "Retry-After hint attached to shed (429) responses"),
        Knob("REPRO_SERVE_WHATIF_CONCURRENCY", int, 4,
             "concurrent /whatif sweeps admitted, so sweeps cannot starve predicts"),
        Knob("REPRO_SERVE_HANG_TIMEOUT_S", float, 10.0,
             "seconds a pool worker with pending requests may go without replying "
             "before it is killed and its requests retried"),
        Knob("REPRO_SERVE_BACKOFF_S", float, 0.1,
             "base worker-restart backoff (doubles per rapid crash)"),
        Knob("REPRO_SERVE_BACKOFF_MAX_S", float, 5.0, "worker-restart backoff ceiling"),
        # -- lifecycle --------------------------------------------------------
        Knob("REPRO_EVAL_MIN_R_DELTA", float, 0.02,
             "eval gate: max mean-R regression a candidate may show vs the promoted baseline"),
        Knob("REPRO_EVAL_LATENCY_RATIO", float, 5.0,
             "eval gate: max candidate/baseline predict-latency ratio"),
        # -- optimize ---------------------------------------------------------
        Knob("REPRO_OPT_STRATEGY", OneOf("strategy", "anneal", "evolution", "sweep"), "anneal",
             "design-space search strategy: anneal, evolution or sweep"),
        Knob("REPRO_OPT_REANCHOR", int, 8,
             "full-synthesis re-anchor cadence in accepted candidates (0: off)"),
        Knob("REPRO_OPT_AREA_WEIGHT", float, 0.5,
             "clock periods of slack one 100% area increase costs in the search energy"),
    )
}


def get(name: str) -> Any:
    """The effective value of knob ``name``, read from the environment now."""
    knob = KNOBS[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default
    try:
        return knob.parse(raw)
    except ValueError as exc:
        raise ValueError(f"invalid {name}={raw!r}: {exc}") from None


def snapshot() -> Dict[str, Any]:
    """Every knob's effective value (raises on the first malformed one)."""
    return {name: get(name) for name in KNOBS}


def knob_field(name: str) -> Any:
    """A dataclass field bound to knob ``name``, defaulting to its default."""
    return dataclasses.field(default=KNOBS[name].default, metadata={"knob": name})


def configure(cls: Type[T], **overrides: Any) -> T:
    """``cls`` with its knob-bound fields read from the environment.

    Non-``None`` ``overrides`` win over the environment.
    """
    values = {
        field.name: get(field.metadata["knob"])
        for field in dataclasses.fields(cls)
        if "knob" in field.metadata
    }
    values.update({key: value for key, value in overrides.items() if value is not None})
    return cls(**values)

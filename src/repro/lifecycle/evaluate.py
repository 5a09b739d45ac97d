"""Eval gate of the model lifecycle: held-out metrics + verdict + report.

A candidate bundle produced by ``python -m repro retrain`` may only become
``name@promoted`` after beating the currently promoted bundle on a held-out
design split.  The gate follows the paper's Table-5 evaluation: per-design
Pearson correlation of predicted signal arrival times against the ground
truth labels (averaged over the holdout), plus a prediction-latency budget
so a candidate cannot buy accuracy with pathological inference cost.

Every evaluation — promoted or rejected — is written as a JSON **eval
report** (:data:`EVAL_REPORT_SCHEMA`); its sha256 digest over the canonical
JSON encoding is recorded on the promotion entry, so ``/health`` of a
serving process can be traced back to the exact numbers that justified the
bundle it is running.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.metrics import pearson_r
from repro.settings import configure, knob_field

#: Version tag of the eval-report JSON layout.
EVAL_REPORT_SCHEMA = "repro-eval-report/1"


@dataclass(frozen=True)
class EvalThresholds:
    """No-regression bounds applied by :func:`compare_evals`.

    ``repro.settings.configure(EvalThresholds)`` reads them from the
    ``REPRO_EVAL_*`` environment.
    """

    #: Candidate mean R may be at most this much below the baseline's
    #: (improvements always pass).
    min_r_delta: float = knob_field("REPRO_EVAL_MIN_R_DELTA")
    #: Candidate mean predict latency may be at most this multiple of the
    #: baseline's (generous by default — the gate catches pathological
    #: slowness, not benchmark noise).
    latency_ratio: float = knob_field("REPRO_EVAL_LATENCY_RATIO")


def design_signal_r(timer: Any, record: Any, prediction: Optional[Any] = None) -> float:
    """Pearson R of predicted vs labeled signal arrivals on one design."""
    if prediction is None:
        prediction = timer.predict(record)
    signal_labels = record.signal_labels()
    signals = [s for s in sorted(signal_labels) if s in prediction.signal_arrival]
    if not signals:
        return 0.0
    labels = [signal_labels[s] for s in signals]
    predicted = [prediction.signal_arrival[s] for s in signals]
    return pearson_r(labels, predicted)


def evaluate_timer(timer: Any, records: Sequence[Any]) -> Dict[str, Any]:
    """Holdout evaluation of one fitted timer: per-design R + mean latency.

    The first record is predicted once untimed to warm the feature caches,
    then every record is predicted once under the clock; the timed
    predictions also feed the R computation, so the gate measures exactly
    the inference it scores.
    """
    if not records:
        raise ValueError("cannot evaluate a timer on an empty holdout")
    timer.predict(records[0])  # warm-up: JIT-ish caches, page-in
    designs: Dict[str, float] = {}
    latencies: List[float] = []
    for record in records:
        started = time.perf_counter()
        prediction = timer.predict(record)
        latencies.append(time.perf_counter() - started)
        designs[record.name] = round(design_signal_r(timer, record, prediction), 6)
    return {
        "designs": designs,
        "mean_r": round(sum(designs.values()) / len(designs), 6),
        "mean_predict_seconds": round(sum(latencies) / len(latencies), 6),
    }


def compare_evals(
    candidate: Dict[str, Any],
    baseline: Optional[Dict[str, Any]],
    thresholds: Optional[EvalThresholds] = None,
) -> Dict[str, Any]:
    """No-regression verdict of a candidate eval against the baseline's.

    With no baseline (the name was never promoted) the candidate passes by
    definition — the bootstrap promotion.  Otherwise the candidate is
    rejected if its mean R drops more than ``min_r_delta`` below the
    baseline or its mean predict latency exceeds ``latency_ratio`` times
    the baseline's.
    """
    thresholds = thresholds or configure(EvalThresholds)
    reasons: List[str] = []
    if baseline is None:
        return {
            "verdict": "promote",
            "reasons": ["no promoted baseline: bootstrap promotion"],
            "candidate_mean_r": candidate["mean_r"],
            "baseline_mean_r": None,
            "r_delta": None,
            "latency_ratio_observed": None,
        }
    r_delta = candidate["mean_r"] - baseline["mean_r"]
    if r_delta < -thresholds.min_r_delta:
        reasons.append(
            f"holdout mean R regressed by {-r_delta:.4f} "
            f"(candidate {candidate['mean_r']:.4f} vs baseline {baseline['mean_r']:.4f}, "
            f"budget {thresholds.min_r_delta:.4f})"
        )
    baseline_latency = baseline["mean_predict_seconds"]
    ratio = (
        candidate["mean_predict_seconds"] / baseline_latency if baseline_latency > 0 else 1.0
    )
    if ratio > thresholds.latency_ratio:
        reasons.append(
            f"predict latency blew the budget: {ratio:.2f}x the baseline "
            f"(allowed {thresholds.latency_ratio:.2f}x)"
        )
    return {
        "verdict": "reject" if reasons else "promote",
        "reasons": reasons or ["no regression on the holdout split"],
        "candidate_mean_r": candidate["mean_r"],
        "baseline_mean_r": baseline["mean_r"],
        "r_delta": round(r_delta, 6),
        "latency_ratio_observed": round(ratio, 4),
    }


def eval_digest(report: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of an eval report.

    Canonical means sorted keys and no whitespace, so the digest is stable
    across writers; the ``digest`` field itself is excluded (it is derived).
    """
    body = {key: value for key, value in report.items() if key != "digest"}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def build_eval_report(
    name: str,
    candidate_bundle_id: str,
    candidate_eval: Dict[str, Any],
    baseline_bundle_id: Optional[str],
    baseline_eval: Optional[Dict[str, Any]],
    verdict: Dict[str, Any],
    thresholds: EvalThresholds,
    holdout_designs: Sequence[str],
) -> Dict[str, Any]:
    """Assemble the JSON eval-report artifact (digest filled in)."""
    report = {
        "schema": EVAL_REPORT_SCHEMA,
        "model": name,
        "created_at": time.time(),
        "candidate": {"bundle_id": candidate_bundle_id, "eval": candidate_eval},
        "baseline": (
            {"bundle_id": baseline_bundle_id, "eval": baseline_eval}
            if baseline_bundle_id is not None
            else None
        ),
        "holdout_designs": list(holdout_designs),
        "thresholds": {
            "min_r_delta": thresholds.min_r_delta,
            "latency_ratio": thresholds.latency_ratio,
        },
        "verdict": verdict["verdict"],
        "comparison": verdict,
    }
    report["digest"] = eval_digest(report)
    return report


def write_eval_report(report: Dict[str, Any], path: os.PathLike) -> Path:
    """Write an eval report as pretty JSON; returns the path written."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return destination

"""``python -m repro retrain``: ingest → fit → register → eval gate → promote.

One retrain run closes the online-lifecycle loop:

1. **Ingest** — fold newly arrived designs into the training set: extra
   benchmark designs beyond the base slice and/or fuzz-corpus seeds
   (replayable ``(seed, size_class)`` pairs elaborated through the shared
   artifact cache, the same ingestion path ``/predict`` uses for raw
   source).
2. **Retrain** — fit a fresh :class:`~repro.core.pipeline.RTLTimer` on the
   widened set and register it as a candidate bundle (never as the default
   — registration is not deployment).
3. **Eval gate** — score candidate and currently promoted baseline on a
   held-out design split (:mod:`repro.lifecycle.evaluate`), write the JSON
   eval report either way.
4. **Promote** — flip ``name@promoted`` to the candidate *only* on a
   no-regression verdict, recording the eval digest on the promotion entry.

The holdout split is disjoint from the training slice by construction and
verified at runtime — a retrain that would evaluate on its own training
designs refuses to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.lifecycle.evaluate import (
    EvalThresholds,
    build_eval_report,
    compare_evals,
    evaluate_timer,
    write_eval_report,
)
from repro.runtime import report as report_mod
from repro.settings import configure

#: Stage names of the retrain flow (shared with the lifecycle benchmark).
INGEST_STAGE = "lifecycle.ingest"
RETRAIN_STAGE = "lifecycle.retrain"
EVAL_STAGE = "lifecycle.eval"


def training_config(
    estimators: Optional[int] = None, fast: bool = False, seed: int = 0
):
    """Translate lifecycle/CLI training knobs into an :class:`RTLTimerConfig`.

    ``estimators`` must be positive when given; ``None`` selects the preset
    (20 fast / 60 full).  An explicit ``is None`` check — not truthiness —
    so a caller passing 0 gets an error instead of silently training with
    the default.
    """
    from repro.core import BitwiseConfig, OverallConfig, RTLTimerConfig, SignalwiseConfig

    if estimators is not None and estimators <= 0:
        raise ValueError(f"estimators must be a positive integer, got {estimators}")
    resolved = estimators if estimators is not None else (20 if fast else 60)
    return RTLTimerConfig(
        bitwise=BitwiseConfig(
            n_estimators=resolved,
            max_depth=5 if fast else 6,
            max_train_endpoints_per_design=80 if fast else 250,
            seed=seed,
        ),
        signalwise=SignalwiseConfig(
            n_estimators=resolved,
            ranker_estimators=max(resolved // 2, 10) if fast else 80,
            seed=seed,
        ),
        overall=OverallConfig(n_estimators=max(resolved // 2, 10), seed=seed),
    )


@dataclass
class RetrainConfig:
    """One retrain run's knobs (CLI flags map 1:1; tests inject specs)."""

    #: Registry name whose promoted alias the run feeds.
    name: str = "rtl-timer"
    #: Base training slice: the first N benchmark designs.
    designs: int = 8
    #: Newly ingested benchmark designs appended after the base slice.
    extra_designs: int = 0
    #: Newly ingested fuzz-corpus members, by replayable seed.
    fuzz_seeds: Sequence[int] = field(default_factory=tuple)
    #: Size class the fuzz seeds are expanded under.
    fuzz_size_class: str = "small"
    #: Held-out designs: the last N benchmark designs (disjoint from the
    #: training slice by construction, verified at runtime).
    holdout: int = 3
    #: Boosting rounds per stage (None: preset; must be positive).
    estimators: Optional[int] = None
    #: Small fast-training preset (CI smoke lanes).
    fast: bool = False
    #: Model seed.
    seed: int = 0
    #: Where the eval report lands (None: ``<registry>/eval-reports/``).
    report_out: Optional[str] = None
    #: Verdict thresholds (None: from the environment knobs).
    thresholds: Optional[EvalThresholds] = None
    #: Test injection points: explicit spec lists override the benchmark
    #: suite slices entirely.
    train_specs: Optional[Sequence[Any]] = None
    holdout_specs: Optional[Sequence[Any]] = None


def _resolve_specs(config: RetrainConfig):
    """The (train, holdout) spec split; raises on overlap or exhaustion."""
    if config.train_specs is not None or config.holdout_specs is not None:
        if config.train_specs is None or config.holdout_specs is None:
            raise ValueError("train_specs and holdout_specs must be injected together")
        train, holdout = list(config.train_specs), list(config.holdout_specs)
    else:
        from repro.hdl.generate import BENCHMARK_SPECS

        train_count = max(config.designs, 1) + max(config.extra_designs, 0)
        holdout_count = max(config.holdout, 1)
        if train_count + holdout_count > len(BENCHMARK_SPECS):
            raise ValueError(
                f"cannot split {len(BENCHMARK_SPECS)} benchmark designs into "
                f"{train_count} training + {holdout_count} holdout"
            )
        train = list(BENCHMARK_SPECS[:train_count])
        holdout = list(BENCHMARK_SPECS[-holdout_count:])
    overlap = {spec.name for spec in train} & {spec.name for spec in holdout}
    if overlap:
        raise ValueError(f"holdout designs overlap the training set: {sorted(overlap)}")
    if not holdout:
        raise ValueError("retrain needs at least one holdout design for the eval gate")
    return train, holdout


def _fuzz_items(config: RetrainConfig) -> List[Any]:
    """The fuzz-corpus seeds as raw-source build items."""
    from repro.fuzz.corpus import generate_fuzz_design
    from repro.runtime.parallel import SourceItem

    designs = [generate_fuzz_design(int(seed), config.fuzz_size_class) for seed in config.fuzz_seeds]
    return [SourceItem(design.source, design.name) for design in designs]


def run_retrain(
    config: RetrainConfig,
    registry: Optional[Any] = None,
    report: Optional[Any] = None,
) -> Dict[str, Any]:
    """Execute one retrain → eval → (maybe) promote cycle; returns the result.

    The result dict carries ``promoted`` (bool), the verdict, the candidate
    manifest, the promotion entry (when promoted) and the eval-report path.
    The registry default is **only** flipped on a no-regression verdict;
    the eval report is written either way.
    """
    from repro.core import RTLTimer, build_dataset
    from repro.serve.registry import ModelRegistry

    registry = registry or ModelRegistry()
    report = report if report is not None else report_mod.RuntimeReport(
        meta={"command": "retrain", "model": config.name}
    )
    train_specs, holdout_specs = _resolve_specs(config)

    with report_mod.activate(report):
        with report.stage(INGEST_STAGE):
            # One fan-out for the whole ingest: training specs, fuzz sources
            # and holdout specs share the pool, largest first.
            fuzz_items = _fuzz_items(config)
            records = build_dataset(train_specs + fuzz_items + holdout_specs, report=report)
            split = len(train_specs) + len(fuzz_items)
            train_records, holdout_records = records[:split], records[split:]
            if fuzz_items:
                report.incr("lifecycle_fuzz_ingested", len(fuzz_items))
        report.incr("lifecycle_train_designs", len(train_records))

        with report.stage(RETRAIN_STAGE):
            timer = RTLTimer(
                training_config(config.estimators, fast=config.fast, seed=config.seed)
            ).fit(train_records)
        manifest = registry.save(
            timer,
            config.name,
            metadata={
                "lifecycle": "retrain",
                "fast": config.fast,
                "train_designs": len(train_records),
                "fuzz_seeds": [int(seed) for seed in config.fuzz_seeds],
            },
        )
        candidate_id = manifest["bundle_id"]

        with report.stage(EVAL_STAGE):
            candidate_eval = evaluate_timer(timer, holdout_records)
            promoted_entry = registry.promoted(config.name)
            baseline_id = promoted_entry["bundle_id"] if promoted_entry else None
            baseline_eval = None
            if baseline_id is not None and baseline_id != candidate_id:
                baseline_timer = registry.load(baseline_id)
                baseline_eval = evaluate_timer(baseline_timer, holdout_records)
            elif baseline_id == candidate_id:
                # Retraining reproduced the promoted bundle bit-for-bit
                # (content addressing): the candidate is its own baseline.
                baseline_eval = candidate_eval

        thresholds = config.thresholds or configure(EvalThresholds)
        verdict = compare_evals(
            candidate_eval,
            baseline_eval if baseline_id is not None else None,
            thresholds,
        )
        eval_report = build_eval_report(
            config.name,
            candidate_id,
            candidate_eval,
            baseline_id,
            baseline_eval,
            verdict,
            thresholds,
            [record.name for record in holdout_records],
        )
        report_path = write_eval_report(
            eval_report,
            config.report_out
            or Path(registry.directory) / "eval-reports" / f"{candidate_id[:12]}.json",
        )

        promotion = None
        if verdict["verdict"] == "promote":
            promotion = registry.promote(
                config.name,
                candidate_id,
                eval_digest=eval_report["digest"],
                source="retrain",
            )
            report.incr("lifecycle_promotions")
        else:
            report.incr("lifecycle_rejections")

    return {
        "name": config.name,
        "promoted": promotion is not None,
        "verdict": verdict["verdict"],
        "reasons": verdict["reasons"],
        "candidate": manifest,
        "promotion": promotion,
        "eval_report": eval_report,
        "report_path": str(report_path),
    }

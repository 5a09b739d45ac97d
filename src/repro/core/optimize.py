"""Prediction-driven synthesis optimization (Section 3.5.2, Table 6).

RTL-Timer's signal-wise criticality ranking is turned into synthesis
directives:

* the signals are split into four path groups (top 5 %, 5-40 %, 40-70 %,
  rest) and every group receives its own ``group_path`` optimization budget,
* the top ~5 % most critical signals are additionally targeted by ``retime``.

Two experiment entry points build on this:

* :func:`run_optimization_experiment` — the paper's Table 6 protocol:
  synthesize once with default options, once with the prediction-driven
  options, report the percentage change of WNS/TNS/power/area.
* :func:`run_optimization_sweep` — the multi-candidate extension: generate
  K candidate option sets around the ranking (varying group fractions and
  retime aggressiveness), *project* each candidate's timing with the
  incremental what-if engine (:mod:`repro.incremental`) instead of K full
  re-syntheses, then pay for exactly one real synthesis of the most
  promising candidate.  The result is an extended Table 6 row carrying the
  sweep metadata next to the usual percentage changes.

The sweep's scoring loop is the ``sweep`` strategy of the search framework
in :mod:`repro.optimize` — the same evaluator, Pareto bookkeeping and
budget accounting that drive the ``anneal`` / ``evolution`` strategies of
``python -m repro optimize`` (the open-ended quality-vs-budget extension of
Table 6).

Passing the ground-truth ranking instead of the predicted one gives the
"Opt. w. Real" columns in both protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import DesignRecord
from repro.core.metrics import DEFAULT_GROUP_FRACTIONS
from repro.incremental.whatif import WhatIfEstimate
from repro.optimize.search import SearchConfig, run_search
from repro.optimize.space import (
    cached_synthesize,
    canonical_option_key,
    options_from_ranking,
)
from repro.runtime.cache import ArtifactCache
from repro.runtime.report import incr as _incr, stage as _stage
from repro.sta.constraints import ClockConstraint
from repro.synth.flow import SynthesisResult
from repro.synth.optimizer import SynthesisOptions

__all__ = [
    "CANDIDATE_GROUP_FRACTIONS",
    "CANDIDATE_RETIME_FRACTIONS",
    "OptimizationOutcome",
    "canonical_option_key",
    "generate_candidates",
    "options_from_ranking",
    "ranking_from_labels",
    "run_optimization_experiment",
    "run_optimization_sweep",
    "summarize_outcomes",
]


@dataclass
class OptimizationOutcome:
    """Default-vs-optimized comparison for one design (one Table 6 row).

    When produced by :func:`run_optimization_sweep`, ``candidates`` carries
    the incremental what-if estimate of every option set evaluated and
    ``chosen_index`` points at the one that was actually synthesized.
    """

    design: str
    default: SynthesisResult
    optimized: SynthesisResult
    options: SynthesisOptions
    ranking_source: str = "predicted"
    candidates: List[WhatIfEstimate] = field(default_factory=list)
    chosen_index: int = 0

    # Percentage changes, computed in __post_init__.
    wns_change_pct: float = field(init=False)
    tns_change_pct: float = field(init=False)
    power_change_pct: float = field(init=False)
    area_change_pct: float = field(init=False)

    def __post_init__(self) -> None:
        self.wns_change_pct = _magnitude_change_pct(self.default.wns, self.optimized.wns)
        self.tns_change_pct = _magnitude_change_pct(self.default.tns, self.optimized.tns)
        self.power_change_pct = _relative_change_pct(
            self.default.qor.total_power, self.optimized.qor.total_power
        )
        self.area_change_pct = _relative_change_pct(
            self.default.qor.area, self.optimized.qor.area
        )

    @property
    def improved(self) -> bool:
        """True when neither WNS nor TNS degraded (the paper's criterion)."""
        return self.wns_change_pct <= 0.0 and self.tns_change_pct <= 0.0

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def as_row(self) -> Dict[str, float]:
        row = {
            "design": self.design,
            "wns_pct": self.wns_change_pct,
            "tns_pct": self.tns_change_pct,
            "power_pct": self.power_change_pct,
            "area_pct": self.area_change_pct,
        }
        if self.candidates:
            chosen = self.candidates[self.chosen_index]
            row["n_candidates"] = float(len(self.candidates))
            row["chosen_candidate"] = float(self.chosen_index)
            row["estimated_wns"] = chosen.wns
            row["estimated_tns"] = chosen.tns
        return row


def _magnitude_change_pct(default_value: float, optimized_value: float) -> float:
    """Change of |value| in percent (negative = improvement for WNS/TNS)."""
    base = abs(default_value)
    if base < 1e-9:
        return 0.0
    return 100.0 * (abs(optimized_value) - base) / base


def _relative_change_pct(default_value: float, optimized_value: float) -> float:
    if abs(default_value) < 1e-12:
        return 0.0
    return 100.0 * (optimized_value - default_value) / default_value


#: Group-fraction variations explored by the candidate generator: the
#: paper's split first, then progressively wider/narrower critical groups.
CANDIDATE_GROUP_FRACTIONS: Tuple[Tuple[float, ...], ...] = (
    DEFAULT_GROUP_FRACTIONS,
    (0.05, 0.30, 0.60),
    (0.10, 0.40, 0.70),
    (0.05, 0.45, 0.80),
    (0.03, 0.35, 0.65),
    (0.10, 0.50, 0.80),
    (0.08, 0.40, 0.75),
    (0.05, 0.25, 0.55),
)

#: Retime-fraction variations (the paper targets the top ~5 %).
CANDIDATE_RETIME_FRACTIONS: Tuple[float, ...] = (0.05, 0.03, 0.10, 0.08)


def generate_candidates(
    ranked_signals: Sequence[str],
    k: int = 8,
    seed: int = 1,
) -> List[SynthesisOptions]:
    """Deterministically generate up to ``k`` candidate option sets.

    Candidates walk a fixed grid of group-fraction and retime-fraction
    variations, starting from the paper's configuration, so candidate 0 of a
    ``k=1`` sweep is exactly the classic Table 6 option set.  Grid points
    whose *realized* options collapse to an already-generated candidate are
    deduplicated by :func:`repro.optimize.space.canonical_option_key` — the
    same key the search strategies memoize on — so a sweep or search budget
    is never silently wasted re-scoring the same option set (tiny rankings
    map many fraction tuples onto the same split, and fewer than ``k``
    candidates can come back).
    """
    candidates: List[SynthesisOptions] = []
    seen: set = set()
    grid_size = len(CANDIDATE_GROUP_FRACTIONS) * len(CANDIDATE_RETIME_FRACTIONS)
    for index in range(grid_size):
        if len(candidates) >= max(1, k):
            break
        fractions = CANDIDATE_GROUP_FRACTIONS[index % len(CANDIDATE_GROUP_FRACTIONS)]
        retime = CANDIDATE_RETIME_FRACTIONS[
            (index // len(CANDIDATE_GROUP_FRACTIONS)) % len(CANDIDATE_RETIME_FRACTIONS)
        ]
        options = options_from_ranking(
            ranked_signals,
            group_fractions=fractions,
            retime_fraction=retime,
            seed=seed,
        )
        key = canonical_option_key(options)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(options)
    return candidates


def ranking_from_labels(record: DesignRecord) -> List[str]:
    """Ground-truth signal ranking (most critical first) from the labels."""
    labels = record.signal_labels()
    return sorted(labels, key=lambda signal: (-labels[signal], signal))


def run_optimization_sweep(
    record: DesignRecord,
    ranked_signals: Sequence[str],
    k: int = 8,
    ranking_source: str = "predicted",
    clock: Optional[ClockConstraint] = None,
    cache: Optional[ArtifactCache] = None,
    seed: int = 7,
) -> OptimizationOutcome:
    """Multi-candidate prediction-driven optimization for one design.

    Evaluates ``k`` candidate option sets with the incremental what-if
    engine against the record's baseline synthesis (through the ``sweep``
    strategy of :func:`repro.optimize.run_search`), then runs the full flow
    only for the default options and the best-scoring candidate.  With
    ``k=1`` this degenerates to the paper's two-synthesis protocol (the
    what-if projection is skipped entirely).

    The two full synthesis runs go through the content-addressed artifact
    cache (``cache`` defaults to the environment-configured store, honouring
    ``REPRO_CACHE=0``), so repeated sweeps over an unchanged design cost
    only the incremental projections.
    """
    clock = clock or record.clock
    if cache is None:
        cache = ArtifactCache()
    candidates = generate_candidates(ranked_signals, k=k, seed=seed)

    estimates: List[WhatIfEstimate] = []
    chosen_index = 0
    if len(candidates) > 1:
        with _stage("optimize.whatif_sweep"):
            search = run_search(
                record,
                ranked_signals,
                config=SearchConfig(
                    strategy="sweep",
                    budget=len(candidates),
                    seed=seed,
                    reanchor_every=0,
                ),
                cache=cache,
                candidates=candidates,
            )
        estimates = search.estimates
        # Best projected timing: largest (least negative) TNS, then WNS.
        chosen_index = max(
            range(len(estimates)),
            key=lambda i: (estimates[i].tns, estimates[i].wns, -i),
        )
        _incr("optimize_candidates", len(estimates))

    with _stage("optimize.synthesis"):
        default = cached_synthesize(record, clock, SynthesisOptions(seed=seed), seed, cache)
        optimized = cached_synthesize(record, clock, candidates[chosen_index], seed, cache)

    return OptimizationOutcome(
        design=record.name,
        default=default,
        optimized=optimized,
        options=candidates[chosen_index],
        ranking_source=ranking_source,
        candidates=estimates,
        chosen_index=chosen_index,
    )


def run_optimization_experiment(
    record: DesignRecord,
    ranked_signals: Sequence[str],
    ranking_source: str = "predicted",
    clock: Optional[ClockConstraint] = None,
    seed: int = 7,
) -> OptimizationOutcome:
    """The paper's single-candidate protocol (one row of Table 6).

    Equivalent to :func:`run_optimization_sweep` with ``k=1``: default
    options vs the classic prediction-driven option set, two syntheses.
    """
    return run_optimization_sweep(
        record,
        ranked_signals,
        k=1,
        ranking_source=ranking_source,
        clock=clock,
        seed=seed,
    )


#: Keys always present in a :func:`summarize_outcomes` result.
SUMMARY_KEYS: Tuple[str, ...] = tuple(
    f"{prefix}_{metric}_pct"
    for prefix in ("avg1", "avg2")
    for metric in ("wns", "tns", "power", "area")
)


def summarize_outcomes(outcomes: Sequence[OptimizationOutcome]) -> Dict[str, float]:
    """Avg1/Avg2 aggregation of Table 6.

    ``avg1_*`` averages the optimization-flow results over all designs;
    ``avg2_*`` replaces non-optimized designs (where WNS or TNS degraded) with
    the default flow (zero change), matching the paper's practice of running
    both flows concurrently and keeping the better one.

    The result is well-defined on an empty outcome list: every ``avg*`` key
    is present with value 0.0 and ``n_designs`` is 0, so table assembly
    never trips over a missing key or a division by zero.
    """
    if not outcomes:
        return {**{key: 0.0 for key in SUMMARY_KEYS}, "n_designs": 0.0}

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    avg1 = {
        "avg1_wns_pct": mean([o.wns_change_pct for o in outcomes]),
        "avg1_tns_pct": mean([o.tns_change_pct for o in outcomes]),
        "avg1_power_pct": mean([o.power_change_pct for o in outcomes]),
        "avg1_area_pct": mean([o.area_change_pct for o in outcomes]),
    }
    avg2 = {
        "avg2_wns_pct": mean([o.wns_change_pct if o.improved else 0.0 for o in outcomes]),
        "avg2_tns_pct": mean([o.tns_change_pct if o.improved else 0.0 for o in outcomes]),
        "avg2_power_pct": mean([o.power_change_pct if o.improved else 0.0 for o in outcomes]),
        "avg2_area_pct": mean([o.area_change_pct if o.improved else 0.0 for o in outcomes]),
    }
    return {**avg1, **avg2, "n_designs": float(len(outcomes))}

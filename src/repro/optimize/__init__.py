"""Search-based design-space optimization on the incremental what-if engine.

The package turns the fixed-K candidate sweep of
:func:`repro.core.optimize.run_optimization_sweep` into a real optimizer:
budget-bounded, seed-replayable search over
:class:`~repro.synth.optimizer.SynthesisOptions` (group fractions, retime
aggressiveness and per-signal group assignments) whose inner loop is the
incremental what-if STA engine, with periodic full-synthesis re-anchoring
so incremental drift can never silently corrupt a search.

Layout:

* :mod:`repro.optimize.space` — the candidate genome
  (:class:`CandidateSpec`), seeded mutations, canonical option keys and the
  shared cached-synthesis helpers,
* :mod:`repro.optimize.pareto` — the delay-vs-area Pareto front with
  deterministic dominance/tie-breaking (and the ``optimize.dominance``
  fault tooth),
* :mod:`repro.optimize.search` — the strategies (``anneal``, ``evolution``,
  ``sweep``), the memoized incremental evaluator, re-anchoring and budget
  accounting,
* :mod:`repro.optimize.artifact` — ``repro-optimize-run/1`` artifacts and
  exact replay.

See ``docs/optimization.md`` for the user-facing guide and
``python -m repro optimize`` for the CLI.
"""

from repro.optimize.artifact import (
    OPTIMIZE_RUN_SCHEMA,
    build_artifact,
    canonical_payload,
    load_artifact,
    replay_artifact,
    replay_summary,
    write_artifact,
)
from repro.optimize.pareto import (
    DOMINANCE_FAULT,
    ParetoFront,
    ParetoPoint,
    dominates,
    hypervolume,
    reference_point,
)
from repro.optimize.search import (
    ANCHOR_TOLERANCE,
    STRATEGIES,
    DriftError,
    IncrementalEvaluator,
    ScoredCandidate,
    SearchConfig,
    SearchResult,
    TrajectoryEntry,
    run_search,
)
from repro.optimize.space import (
    CandidateSpec,
    cached_synthesize,
    canonical_option_key,
    default_spec,
    mutate_spec,
    options_from_ranking,
    synthesis_key,
)

__all__ = [
    "ANCHOR_TOLERANCE",
    "CandidateSpec",
    "DOMINANCE_FAULT",
    "DriftError",
    "IncrementalEvaluator",
    "OPTIMIZE_RUN_SCHEMA",
    "ParetoFront",
    "ParetoPoint",
    "STRATEGIES",
    "ScoredCandidate",
    "SearchConfig",
    "SearchResult",
    "TrajectoryEntry",
    "build_artifact",
    "cached_synthesize",
    "canonical_option_key",
    "canonical_payload",
    "default_spec",
    "dominates",
    "hypervolume",
    "load_artifact",
    "mutate_spec",
    "options_from_ranking",
    "reference_point",
    "replay_artifact",
    "replay_summary",
    "run_search",
    "synthesis_key",
    "write_artifact",
]

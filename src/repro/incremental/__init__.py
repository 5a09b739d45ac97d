"""Incremental what-if timing engine.

The subsystem has three layers:

* :mod:`repro.incremental.patches` — :class:`PatchPlan`, a candidate's
  local changes held as arrays (derates, cell swaps and extra loads, the
  three kinds the projection emits) with fixed timing footprints,
  scattered into override columns,
* :mod:`repro.incremental.engine` — :class:`IncrementalSTA`, re-timing of
  a candidate's override columns (never an edit of the network) that
  matches a full re-analysis bit for bit and reports each plan's
  dirty-cone footprint (an empty plan is the baseline report itself),
* :mod:`repro.incremental.whatif` — projection of
  :class:`~repro.synth.optimizer.SynthesisOptions` candidates onto patch
  plans through one :class:`WhatIfPlan` per frozen baseline, powering
  ``RTLTimer.what_if``, the search evaluator and the multi-candidate
  optimization sweep of :mod:`repro.core.optimize`.
"""

from repro.incremental.engine import IncrementalSTA, PropagationStats
from repro.incremental.patches import PatchPlan
from repro.incremental.whatif import (
    WhatIfEstimate,
    WhatIfPlan,
    evaluate_candidates,
    patches_for_options,
    whatif_plan,
)

__all__ = [
    "IncrementalSTA",
    "PropagationStats",
    "PatchPlan",
    "WhatIfEstimate",
    "WhatIfPlan",
    "evaluate_candidates",
    "patches_for_options",
    "whatif_plan",
]

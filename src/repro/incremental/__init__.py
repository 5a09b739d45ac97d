"""Incremental what-if timing engine.

The subsystem has three layers:

* :mod:`repro.incremental.patches` — local changes written into override
  columns (:class:`SetDerate`, :class:`SwapCell`, :class:`AddExtraLoad`)
  with fixed timing footprints, the three kinds the projection emits, and
  :class:`PatchPlan`, a patch set held as arrays,
* :mod:`repro.incremental.engine` — :class:`IncrementalSTA`, re-timing of
  a candidate's override columns (never an edit of the network) that matches a full re-analysis bit for bit and reports
  each patch set's dirty-cone footprint (an empty patch set is the
  baseline report itself),
* :mod:`repro.incremental.whatif` — projection of
  :class:`~repro.synth.optimizer.SynthesisOptions` candidates onto patch
  plans through one :class:`WhatIfPlan` per frozen baseline, powering
  ``RTLTimer.what_if``, the search evaluator and the multi-candidate
  optimization sweep of :mod:`repro.core.optimize`.
"""

from repro.incremental.engine import IncrementalSTA, PropagationStats
from repro.incremental.patches import (
    AddExtraLoad,
    PatchPlan,
    SetDerate,
    SwapCell,
    TimingPatch,
)
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
    "AddExtraLoad",
    "PatchPlan",
    "SetDerate",
    "SwapCell",
    "TimingPatch",
    "WhatIfEstimate",
    "WhatIfPlan",
    "evaluate_candidates",
    "patches_for_options",
    "whatif_plan",
]

"""Incremental what-if timing engine.

The subsystem has three layers:

* :mod:`repro.incremental.patches` — local changes written into override
  columns (:class:`SetDerate`, :class:`SwapCell`, :class:`AddExtraLoad`)
  with declared timing footprints, the three kinds the projection emits,
* :mod:`repro.incremental.engine` — :class:`IncrementalSTA`, re-timing of
  a candidate's override columns (never an edit of the network) that matches a full re-analysis bit for bit and reports
  each patch set's dirty-cone footprint (an empty patch set is the
  baseline report itself),
* :mod:`repro.incremental.whatif` — projection of
  :class:`~repro.synth.optimizer.SynthesisOptions` candidates onto patch
  sets, powering ``RTLTimer.what_if`` and the multi-candidate optimization
  sweep of :mod:`repro.core.optimize`.
"""

from repro.incremental.engine import IncrementalSTA, PropagationStats
from repro.incremental.patches import (
    AddExtraLoad,
    SetDerate,
    SwapCell,
    TimingPatch,
)
from repro.incremental.whatif import (
    WhatIfEstimate,
    evaluate_candidates,
    patches_for_options,
)

__all__ = [
    "IncrementalSTA",
    "PropagationStats",
    "AddExtraLoad",
    "SetDerate",
    "SwapCell",
    "TimingPatch",
    "WhatIfEstimate",
    "evaluate_candidates",
    "patches_for_options",
]
